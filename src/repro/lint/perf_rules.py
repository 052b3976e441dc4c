"""Hot-path performance lint: interprocedural H-rules over model classes.

ROADMAP item 1's residual cost is *diffuse*: per-grant model semantics
spread across many small methods, each individually too cheap to show
up in a code review but collectively the gap between the bare engine
(~1.4M events/s) and the full simulator (docs/PERFORMANCE.md "Model
layer").  A profiler samples that cost; this layer *predicts* it from
source, so every model -- including user-registered ones -- gets an
automatic hot-path audit instead of a manual profiling session.

The analysis reuses the interprocedural call-graph engine built for
shard purity (:mod:`repro.lint.callgraph`): starting from the known
per-event entry points (router ``_step``/``receive_flit``, channel
delivery, interface injection, congestion-sensor records), a *heat*
weight in calls per flit-hop (the measured handler census) propagates
through each class's call graph (:func:`~repro.lint.callgraph
.propagate_heat`).  Hazards are flagged **only on provably hot
methods**, each with a ``Class.entry -> helper -> method`` evidence
chain:

* **H001** container allocation that escapes the call (list/dict/set/
  tuple displays, comprehensions, constructor calls stored on ``self``,
  returned, or passed onward) -- one garbage object per event.

Findings are ranked hottest-first by static heat.  Fingerprints
(docs/LINTING.md "Baselines") hash the evidence chain plus a per-hazard
token, never the message or line number, so a committed baseline
survives analyzer evolution.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.callgraph import (
    ClassGraph,
    Heat,
    MethodScan,
    ModelTarget,
    model_bases,
    model_targets,
    propagate_heat,
)
from repro.lint.findings import Finding, Severity
from repro.lint.rules import (
    PERF_LAYER,
    TARGET_FRAME,
    LintContext,
    LintRule,
    declare_rules,
)

#: Hot entry points per model kind, weighted by the measured handler
#: census (docs/PERFORMANCE.md: ~2 landings and ~0.9 steps per flit-hop
#: on the benchmark workload).  Weights are relative execution
#: frequencies in "calls per flit-hop" units -- they rank, they don't
#: time.
HEAT_ENTRIES: Dict[str, Dict[str, float]] = {
    "router": {
        # land core arrivals (the in-core FIFO drain, formerly one
        # event per flit) + drain + route + allocate + crossbar
        "_step": 5.0,
        "receive_flit": 1.0,    # one per flit-hop
        "receive_credit": 1.0,  # one per returned credit
        "send_credit": 1.0,
    },
    "interface": {
        "_inject_step": 2.0,    # packetization + VC selection per cycle
        "receive_flit": 1.0,    # ejection side
        "receive_credit": 1.0,
        "send_flit": 1.0,
        "send_message": 0.5,    # per message, amortized over flits
    },
    "channel": {
        "send_flit": 1.0,
        "send_credit": 1.0,
        "_launch": 2.0,         # sharded ingress (sends inline it)
        "_deliver_item": 1.0,   # per-item hook the landing wheel calls
    },
    "wheel": {
        # One engine event per phase, but the loops run once per item:
        # the landing wheel's per flit and per credit, the step wheel's
        # per device step.
        "_drain": 2.0,
    },
    "sensor": {
        "record": 2.0,          # every credit take/give reports here
        "status": 1.0,          # adaptive routing fans over ports
    },
    "routing": {
        "route": 0.5,           # per packet head, not per flit
        "respond": 0.5,
    },
    "application": {
        "message_generated": 0.25,   # per message
        "_message_delivered": 0.25,
        "on_message_delivered": 0.25,
    },
}

#: Methods below this heat are not audited (construction-time helpers
#: never appear in the heat map at all; this threshold only matters if
#: entry weights below it are ever added).
HOT_THRESHOLD = 0.25

#: Constructor names whose calls allocate a container (H001).
_CONTAINER_CALLS = frozenset({
    "list", "dict", "set", "frozenset", "tuple", "deque", "defaultdict",
    "OrderedDict", "Counter", "bytearray",
})


class PerfSite:
    """One hazard occurrence inside a hot method."""

    __slots__ = ("node", "detail", "token")

    def __init__(self, node: ast.AST, detail: str, token: str):
        self.node = node
        self.detail = detail
        self.token = token

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 0)


class PerfScan(ast.NodeVisitor):
    """Single pass over one hot method body collecting H-rule sites.

    An allocation inside a ``raise`` or ``assert`` is on an error path
    and exempt.
    """

    def __init__(self, method_node: ast.AST, module_name: str):
        self.module_name = module_name
        self.sites: Dict[str, List[PerfSite]] = {"H001": []}
        self._raise_depth = 0
        #: escaping allocation node ids (assigned while walking parents)
        self._escapes: Dict[int, str] = {}
        body = getattr(method_node, "body", [])
        for stmt in body:
            self.visit(stmt)

    # -- error paths -------------------------------------------------------

    def visit_Raise(self, node: ast.Raise) -> None:
        self._raise_depth += 1
        self.generic_visit(node)
        self._raise_depth -= 1

    def visit_Assert(self, node: ast.Assert) -> None:
        self._raise_depth += 1
        self.generic_visit(node)
        self._raise_depth -= 1

    # -- assignments: escaping allocations -----------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if self._is_self_store(target):
                self._mark_escape(node.value, "stored on self")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            if self._is_self_store(node.target):
                self._mark_escape(node.value, "stored on self")
            self.visit(node.value)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._mark_escape(node.value, "returned")
        self.generic_visit(node)

    @staticmethod
    def _is_self_store(target: ast.AST) -> bool:
        node = target
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return isinstance(node, ast.Name) and node.id == "self"

    def _mark_escape(self, value: ast.AST, how: str) -> None:
        self._escapes[id(value)] = how

    # -- expressions -------------------------------------------------------

    def visit_Lambda(self, node: ast.AST) -> None:
        """Don't descend: a nested body runs later, not on this path."""

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda

    def _alloc(self, node: ast.AST, kind: str) -> None:
        if self._raise_depth:
            return  # allocations feeding a raise are error-path
        escape = self._escapes.get(id(node))
        if escape is None:
            return
        self.sites["H001"].append(PerfSite(
            node,
            f"allocates a {kind} per call that escapes ({escape}); "
            f"hoist it to construction time or reuse a preallocated "
            f"object",
            f"alloc:{kind}:{escape.split()[0]}",
        ))

    def visit_List(self, node: ast.List) -> None:
        self._alloc(node, "list")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        self._alloc(node, "dict")
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        self._alloc(node, "set")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._alloc(node, "list comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._alloc(node, "dict comprehension")
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._alloc(node, "set comprehension")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # Arguments escape into the callee.
        for arg in node.args:
            self._mark_escape(arg, "passed to a call")
        for kw in node.keywords:
            self._mark_escape(kw.value, "passed to a call")
        if isinstance(func, ast.Name) and func.id in _CONTAINER_CALLS:
            self._alloc(node, func.id)
        self.generic_visit(node)


# -- analysis ----------------------------------------------------------------


class PerfHazard:
    """One H-rule hazard on a provably hot path."""

    __slots__ = ("rule_id", "class_name", "owner", "path", "location",
                 "detail", "token", "heat", "method", "filename")

    def __init__(self, rule_id: str, class_name: str, owner: str,
                 heat: Heat, method: str, filename: str, site: PerfSite):
        self.rule_id = rule_id
        self.class_name = class_name
        #: the class that *defines* the flagged method (MRO owner) --
        #: the dedupe identity when many subclasses inherit it.
        self.owner = owner
        self.path = heat.path
        self.heat = heat.weight
        self.method = method
        self.filename = filename
        self.location = f"{filename}:{site.lineno}"
        self.detail = site.detail
        self.token = site.token

    @property
    def chain(self) -> str:
        return f"{self.class_name}." + " -> ".join(self.path)

    @property
    def fingerprint_path(self) -> str:
        """Evidence-chain identity: stable across lines and messages."""
        return (
            f"{self.class_name}:" + "->".join(self.path)
            + f":{self.token}"
        )

    def render(self, rank: int, total: int) -> str:
        text = (
            f"{self.rule_id} {self.chain}: {self.detail} "
            f"[heat {self.heat:g} ev/hop, rank {rank}/{total}]"
        )
        if self.location:
            text += f" ({self.location})"
        return text


def _framework_classes() -> List[Tuple[str, type]]:
    """Classes no configuration names but every simulation runs."""
    from repro.core.wheel import PhaseWheel
    from repro.net.channel import Channel, CreditChannel, _LandingWheel

    return [
        ("channel", Channel), ("channel", CreditChannel),
        ("wheel", PhaseWheel), ("wheel", _LandingWheel),
    ]


def analyze_class_perf(cls: type, kind: str) -> List[PerfHazard]:
    """All H-rule hazards of ``cls`` under ``kind``'s entry weights."""
    graph = ClassGraph(cls)
    if not graph.source_available:
        return []
    entries = HEAT_ENTRIES.get(kind, {})
    heat_map = propagate_heat(graph, entries)
    hazards: List[PerfHazard] = []
    seen: Set[Tuple[str, str, str]] = set()
    for method, heat in heat_map.items():
        if heat.weight < HOT_THRESHOLD:
            continue
        scan: MethodScan = graph.scans[method]
        perf = PerfScan(scan.node, scan.module)
        for rule_id, sites in perf.sites.items():
            for site in sites:
                key = (rule_id, method, site.token)
                if key in seen:
                    continue
                seen.add(key)
                hazards.append(PerfHazard(
                    rule_id, graph.class_name, scan.class_name, heat,
                    method, scan.filename, site,
                ))
    return hazards


class PerfAnalysis:
    """Memoized hot-path audit of one lint run's model targets (the
    configured or in-path registered models, congestion sensors and
    framework classes).
    """

    def __init__(self, ctx: LintContext):
        from repro.router.congestion import CongestionSensor

        bases = {**model_bases(), "sensor": CongestionSensor}
        self.targets = model_targets(ctx, bases, _framework_classes())
        self._hazards: Optional[List[Tuple[ModelTarget, PerfHazard]]] = None
        self._ranked: Optional[List[Tuple[ModelTarget, PerfHazard, int]]] = None

    # -- hazard collection + ranking ---------------------------------------

    def hazards(self) -> List[Tuple[ModelTarget, PerfHazard]]:
        if self._hazards is None:
            seen_classes: Set[Tuple[type, str]] = set()
            #: one finding per (rule, defining class, method, token) --
            #: a base-class method inherited by N registered subclasses
            #: is one hazard, attributed to the hottest/shortest chain.
            best: Dict[Tuple[str, str, str, str],
                       Tuple[ModelTarget, PerfHazard]] = {}
            for target in self.targets:
                cls_key = (target.cls, target.kind)
                if cls_key in seen_classes:
                    continue
                seen_classes.add(cls_key)
                for hazard in analyze_class_perf(target.cls, target.kind):
                    key = (hazard.rule_id, hazard.owner, hazard.method,
                           hazard.token)
                    held = best.get(key)
                    if held is None or hazard.heat > held[1].heat or (
                        hazard.heat == held[1].heat
                        and len(hazard.path) < len(held[1].path)
                    ):
                        best[key] = (target, hazard)
            self._hazards = list(best.values())
        return self._hazards

    def ranked(self) -> List[Tuple[ModelTarget, PerfHazard, int]]:
        """Hazards ordered hottest-first with their 1-based rank."""
        if self._ranked is None:
            hazards = self.hazards()
            ordered = sorted(
                hazards,
                key=lambda pair: (
                    -pair[1].heat,
                    pair[1].rule_id,
                    pair[1].chain,
                    pair[1].token,
                ),
            )
            self._ranked = [
                (target, hazard, rank)
                for rank, (target, hazard) in enumerate(ordered, start=1)
            ]
        return self._ranked

    def findings(self, rule: LintRule) -> List[Finding]:
        ranked = self.ranked()
        total = len(ranked)
        findings: List[Finding] = []
        for target, hazard, rank in ranked:
            if hazard.rule_id != rule.rule_id:
                continue
            findings.append(Finding(
                rule.rule_id,
                rule.severity,
                rule.template.format(
                    origin=target.origin, name=target.name, prefix="",
                    hazard=hazard.render(rank, total),
                ),
                config_path=hazard.fingerprint_path,
                location=hazard.location,
            ))
        return findings


# -- lint-layer integration --------------------------------------------------


declare_rules(PERF_LAYER, lambda rule, ctx: ctx.perf().findings(rule), [
    (rule_id, Severity.WARNING, description, TARGET_FRAME)
    for rule_id, description in (
        ("H001", "container allocated per event escapes the call (stored, "
                 "returned, or passed on) -- one garbage object per event"),
    )
])
