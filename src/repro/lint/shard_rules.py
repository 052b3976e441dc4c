"""Shard-purity analysis: interprocedural S-rules over model classes.

The sharded PDES runtime (:mod:`repro.partition.runtime`) replays every
terminal on every worker and exchanges only cut-channel records, so a
model class is *shard-safe* exactly when nothing it does from an
event/handler entry point depends on state another shard would have
mutated first.  This module derives that verdict from source instead of
from a name blocklist: :func:`analyze_class` builds the class's call
graph (:mod:`repro.lint.callgraph`), walks the methods reachable from
its framework entry points, and applies the S-rules:

* **S002** control decision fed by locally observed deliveries: a
  delivery-handler path that signals Ready/Complete, schedules events,
  or injects traffic; or a Ready/Complete decision reading state
  written on the delivery path (the ``warmup_mode=auto`` class of
  bugs).  ``done()`` is exempt: the coordinator replays Done/Kill from
  the merged delivery stream.
* **S003** whole-network state read: iterating or indexing
  ``.routers``/``.interfaces`` from a handler path (monitor-style
  traversals a shard cannot satisfy; ``len(...)`` is static and
  allowed).
* **S004** module-global mutable state touched from a handler path:
  ``global`` statements, mutations of module-level containers, or
  ``next()`` on an unscoped module-level id counter.
* **S005** RNG draw ordered by local-only events: drawing from a
  random stream inside a delivery-handler path (shards observe
  different delivery interleavings, so shared-stream draw order
  diverges).

Each hazard carries an evidence chain (rule, ``Class.entry -> ... ->
method`` path, source location) and the guarding configuration
conditions, so a class can be *conditionally* unsafe: Blast is clean
under fixed warmup and S002-unsafe only ``[when warmup_mode ==
'auto']``.  :meth:`ClassVerdict.applicable_hazards` evaluates those
conditions against a concrete configuration block.

Consumers: ``validate_sharded_scope`` (runtime preflight), the
``shard`` lint layer (``sslint --layer shard``, ``lint_partition``,
``sssweep --partition``), and the tier-1 classification test
(``tests/lint/test_shard_rules.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro import factory
from repro.lint.callgraph import (
    CONSTRUCTION_METHODS,
    REGISTRY_ATTRS,
    ClassGraph,
    Cond,
    MethodScan,
    Reach,
    merge_conds,
    model_bases,
    module_state,
    reachable,
    render_conds,
)
from repro.lint.findings import Finding, Severity
from repro.lint.rules import (
    SHARD_LAYER,
    TARGET_FRAME,
    LintContext,
    LintRule,
    declare_rules,
)

SHARD_SAFE = "shard-safe"
SHARD_UNSAFE = "shard-unsafe"
CONDITIONAL = "conditional"
UNKNOWN = "unknown"

#: ``self.<name>()`` calls that steer the workload handshake or inject
#: traffic; forbidden on delivery-handler paths (S002).  ``done`` is
#: exempt -- the coordinator replays it from merged deliveries.
CONTROL_CALLS = frozenset({
    "complete", "ready", "start_terminals", "stop_terminals",
})

#: calls that create or schedule new activity (any receiver).
ACTIVITY_CALLS = frozenset({"schedule", "send_message"})

#: RNG draw method names (S005).
RNG_DRAWS = frozenset({
    "choice", "exponential", "integers", "normal", "permutation",
    "poisson", "randint", "random", "randrange", "sample", "shuffle",
    "standard_normal", "uniform",
})

#: framework entry points per model kind.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "application": (
        "on_init", "on_start", "on_stop", "on_kill",
        "message_generated", "_message_delivered",
    ),
    "routing": ("route", "respond"),
    "router": (),   # every non-construction method (computed)
    "interface": (),
}

#: entry points driven by a *local* delivery observation.
DELIVERY_ENTRIES = ("_message_delivered", "on_message_delivered")


class Hazard:
    """One S-rule violation with its evidence chain."""

    __slots__ = ("rule_id", "class_name", "path", "location", "detail",
                 "conditions")

    def __init__(
        self,
        rule_id: str,
        class_name: str,
        path: Tuple[str, ...],
        location: str,
        detail: str,
        conditions: Tuple[Cond, ...] = (),
    ):
        self.rule_id = rule_id
        self.class_name = class_name
        self.path = path
        self.location = location
        self.detail = detail
        self.conditions = conditions

    @property
    def chain(self) -> str:
        """``Class.entry -> helper -> method`` evidence path."""
        return f"{self.class_name}." + " -> ".join(self.path)

    def applicable(self, block: Optional[dict]) -> bool:
        """Whether the hazard applies under configuration ``block``.

        Undecidable conditions count as satisfied (the sound
        direction); only a condition the block provably falsifies
        makes the hazard dormant.
        """
        return all(c.evaluate(block) is not False for c in self.conditions)

    def render(self) -> str:
        text = f"{self.rule_id} {self.chain}: {self.detail}"
        when = render_conds(self.conditions)
        if when:
            text += f" {when}"
        if self.location:
            text += f" ({self.location})"
        return text


class ClassVerdict:
    """Shard-safety classification of one model class."""

    __slots__ = ("class_name", "kind", "classification", "hazards")

    def __init__(self, class_name: str, kind: str, classification: str,
                 hazards: List[Hazard]):
        self.class_name = class_name
        self.kind = kind
        self.classification = classification
        self.hazards = hazards

    def applicable_hazards(self, block: Optional[dict]) -> List[Hazard]:
        return [h for h in self.hazards if h.applicable(block)]

    def render(self) -> str:
        return f"{self.class_name} [{self.kind}]: {self.classification}"


# -- analysis ----------------------------------------------------------------


def _location(scan: MethodScan, lineno: int) -> str:
    return f"{scan.filename}:{lineno}"


def _entries(graph: ClassGraph, kind: str) -> Tuple[str, ...]:
    declared = ENTRY_POINTS.get(kind, ())
    if declared:
        return declared
    return tuple(
        name for name in graph.methods
        if name not in CONSTRUCTION_METHODS
    )


def _delivery_written_attrs(
    graph: ClassGraph, delivery_reach: Dict[str, Reach]
) -> Dict[str, str]:
    """self attributes written on the delivery path -> writing method."""
    written: Dict[str, str] = {}
    for name in delivery_reach:
        for attr in graph.scans[name].self_writes:
            written.setdefault(attr, name)
    return written


def _check_s002(graph, kind, reach, delivery_reach, hazards) -> None:
    if kind != "application":
        return
    # (a) delivery-handler paths that steer control or inject activity.
    for name, info in delivery_reach.items():
        scan = graph.scans[name]
        for called, site in scan.self_calls:
            if called in CONTROL_CALLS or called in ACTIVITY_CALLS:
                hazards.append(Hazard(
                    "S002", graph.class_name, info.path,
                    _location(scan, site.lineno),
                    f"calls {called}() on a delivery-handler path; "
                    f"deliveries are locally observed, so shards "
                    f"would take this control action at different "
                    f"times (done() is exempt: the coordinator "
                    f"replays it)",
                    merge_conds(info.conds, site.conds),
                ))
        for called, site in scan.method_calls:
            if called in ACTIVITY_CALLS:
                hazards.append(Hazard(
                    "S002", graph.class_name, info.path,
                    _location(scan, site.lineno),
                    f"calls .{called}() on a delivery-handler path, "
                    f"generating activity from locally observed "
                    f"deliveries",
                    merge_conds(info.conds, site.conds),
                ))
    # (b) Ready/Complete decisions reading delivery-fed state.
    fed = _delivery_written_attrs(graph, delivery_reach)
    for name, info in reach.items():
        if name in delivery_reach:
            continue  # already covered by (a)
        scan = graph.scans[name]
        signals = [
            (called, site) for called, site in scan.self_calls
            if called in ("ready", "complete")
        ]
        if not signals:
            continue
        for attr, site, owner in scan.attr_loads:
            if owner == "self" and attr in fed:
                called = signals[0][0]
                hazards.append(Hazard(
                    "S002", graph.class_name, info.path,
                    _location(scan, site.lineno),
                    f"decides {called}() from self.{attr}, which is "
                    f"written on the delivery path (in {fed[attr]}); "
                    f"each shard observes only its own deliveries, so "
                    f"the decision diverges",
                    merge_conds(info.conds, site.conds),
                ))


def _check_s003(graph, reach, hazards) -> None:
    for name, info in reach.items():
        scan = graph.scans[name]
        for attr, site, _owner in scan.attr_loads:
            if attr in REGISTRY_ATTRS and not scan.in_len(site.node):
                hazards.append(Hazard(
                    "S003", graph.class_name, info.path,
                    _location(scan, site.lineno),
                    f"reads the whole-network .{attr} registry from a "
                    f"handler path; a shard only owns its own "
                    f"partition of it (len() alone is static and "
                    f"allowed)",
                    merge_conds(info.conds, site.conds),
                ))


def _check_s004(graph, reach, hazards) -> None:
    for name, info in reach.items():
        scan = graph.scans[name]
        state = module_state(scan.module)
        for site in scan.global_stmts:
            hazards.append(Hazard(
                "S004", graph.class_name, info.path,
                _location(scan, site.node.lineno),
                "declares `global` in a handler path; module-level "
                "state is per-process and diverges across shards",
                merge_conds(info.conds, site.conds),
            ))
        if state is None:
            continue
        for target, site in scan.next_calls:
            if target in state.counters:
                hazards.append(Hazard(
                    "S004", graph.class_name, info.path,
                    _location(scan, site.lineno),
                    f"draws next({target}) from a module-level id "
                    f"counter in a handler path; unscoped counters "
                    f"advance differently on each shard",
                    merge_conds(info.conds, site.conds),
                ))
        for target, site in scan.name_mutations:
            if target in state.mutables:
                hazards.append(Hazard(
                    "S004", graph.class_name, info.path,
                    _location(scan, site.lineno),
                    f"mutates module-level {target} in a handler "
                    f"path; module state is per-process and diverges "
                    f"across shards",
                    merge_conds(info.conds, site.conds),
                ))


def _check_s005(graph, kind, delivery_reach, hazards) -> None:
    if kind != "application":
        return
    for name, info in delivery_reach.items():
        scan = graph.scans[name]
        for called, site in scan.method_calls:
            if called in RNG_DRAWS:
                hazards.append(Hazard(
                    "S005", graph.class_name, info.path,
                    _location(scan, site.lineno),
                    f"draws .{called}() from an RNG stream on a "
                    f"delivery-handler path; delivery order is local "
                    f"to each shard, so shared-stream draw order "
                    f"diverges from the single-process run",
                    merge_conds(info.conds, site.conds),
                ))


_verdict_cache: Dict[Tuple[type, str], ClassVerdict] = {}


def analyze_class(cls: type, kind: str) -> ClassVerdict:
    """Classify ``cls`` (memoized); ``kind`` picks the entry points."""
    key = (cls, kind)
    if key in _verdict_cache:
        return _verdict_cache[key]
    graph = ClassGraph(cls)
    if not graph.source_available:
        verdict = ClassVerdict(cls.__name__, kind, UNKNOWN, [])
        _verdict_cache[key] = verdict
        return verdict
    entries = _entries(graph, kind)
    reach = reachable(graph, entries)
    delivery_reach = reachable(
        graph, [e for e in DELIVERY_ENTRIES if e in graph.methods]
    )
    hazards: List[Hazard] = []
    _check_s002(graph, kind, reach, delivery_reach, hazards)
    _check_s003(graph, reach, hazards)
    _check_s004(graph, reach, hazards)
    _check_s005(graph, kind, delivery_reach, hazards)
    hazards.sort(key=lambda h: (h.rule_id, h.location, h.chain))
    if not hazards:
        classification = SHARD_SAFE
    elif any(not h.conditions for h in hazards):
        classification = SHARD_UNSAFE
    else:
        classification = CONDITIONAL
    verdict = ClassVerdict(cls.__name__, kind, classification, hazards)
    _verdict_cache[key] = verdict
    return verdict


def analyze_registered(kind: str, name: str) -> ClassVerdict:
    """Classify the factory-registered model ``name`` of ``kind``."""
    return analyze_class(factory.lookup(model_bases()[kind], name), kind)


def classify_registered(
    kinds: Iterable[str] = ("application", "routing", "router",
                            "interface"),
) -> Dict[str, Dict[str, ClassVerdict]]:
    """Verdicts for every registered model, keyed by kind then name."""
    bases = model_bases()
    return {
        kind: {
            name: analyze_class(factory.lookup(bases[kind], name), kind)
            for name in factory.names(bases[kind])
        }
        for kind in kinds
    }


# -- lint-layer integration --------------------------------------------------


def _findings(rule: LintRule, ctx: LintContext) -> List[Finding]:
    """``rule``'s findings over the run's model targets.  Hazard
    conditions are evaluated against each configured model's block
    (dormant hazards demote to INFO); with source paths there is no
    config to evaluate, so conditional hazards demote to WARNING.
    """
    findings: List[Finding] = []
    for target in ctx.shard():
        verdict = analyze_class(target.cls, target.kind)
        if verdict.classification == UNKNOWN:
            if rule.rule_id == "S002":  # report unknowns exactly once
                findings.append(Finding(
                    "S002", Severity.WARNING,
                    f"[{target.origin}={target.name}] source of "
                    f"{verdict.class_name} is unavailable; cannot "
                    f"prove shard-safety",
                    config_path=f"{verdict.class_name}:unknown",
                ))
            continue
        for hazard in verdict.hazards:
            if hazard.rule_id != rule.rule_id:
                continue
            severity, prefix = rule.severity, ""
            if target.block is None:
                if hazard.conditions:
                    severity = Severity.WARNING
            elif not hazard.applicable(target.block):
                severity, prefix = Severity.INFO, "dormant here: "
            findings.append(Finding(
                rule.rule_id, severity,
                rule.template.format(
                    origin=target.origin, name=target.name,
                    prefix=prefix, hazard=hazard.render(),
                ),
                config_path=(
                    f"{hazard.class_name}:" + "->".join(hazard.path)
                ),
                location=hazard.location,
            ))
    return findings


declare_rules(SHARD_LAYER, _findings, [
    (rule_id, Severity.ERROR, description, TARGET_FRAME)
    for rule_id, description in (
        ("S002", "workload control (Ready/Complete/scheduling/injection) "
                 "decided from locally observed deliveries or delivery-fed "
                 "state"),
        ("S003", "handler path reads the whole-network .routers/"
                 ".interfaces registries, which a shard only partially "
                 "owns"),
        ("S004", "handler path touches module-level mutable state or "
                 "unscoped global id counters (per-process, diverges "
                 "across shards)"),
        ("S005", "RNG draw on a delivery-handler path; local delivery "
                 "order reorders shared-stream draws across shards"),
    )
])
