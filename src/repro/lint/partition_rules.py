"""Partition-layer lint (P001..P005): manifest shard-safety analysis.

A partition manifest (:mod:`repro.partition.manifest`) claims that a
network can be split into k shards that communicate *only* through
latency-bearing channels, so a conservative PDES runtime can advance
each shard by the manifest's lookahead without violating causality.
The P-rules verify that claim -- for planned manifests (catching
planner bugs before a runtime trusts them) and for hand-written ones
(catching humans).  P001..P005 check a manifest against the network
the config actually constructs, via the same no-simulate constructor
the G-rules use.  The ground truth is the live component/channel graph
-- channel latencies are read off the constructed ``Channel`` objects
(post-override), never schema defaults.

* P001 (error) -- a cut channel with zero/invalid latency, or a
  manifest latency that disagrees with the constructed channel.  A
  zero-latency crossing means zero lookahead: the shards would have to
  synchronize every tick, i.e. the partition is useless or unsound.
* P002 (error) -- a cut crossing that is not a ``Channel`` /
  ``CreditChannel`` of the constructed network, or a cross-shard
  channel the manifest fails to declare.  Every crossing must be a
  channel: channels are the only coupling a parallel runtime proxies.
* P003 (error) -- lookahead below the threshold (default 1 tick) or
  above what the cut channels actually support (overstated lookahead
  is a causality violation waiting to happen).
* P004 (warning) -- shard weights unbalanced beyond tolerance, or an
  empty shard; legal but wasteful (the slowest shard sets the pace).
* P005 (error) -- the shards do not exactly partition the component
  set: a component in no shard, in multiple shards, or unknown to the
  network (also reports structurally malformed manifests).

The layer's per-file rules (P006, P008: code reaching across a shard
boundary without a channel) live in :mod:`repro.lint.source_rules`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro import factory
from repro.lint.findings import Finding, Severity
from repro.lint.rules import PARTITION_LAYER, LintContext, LintRule
from repro.partition import (
    CUT_KINDS,
    DEFAULT_TOLERANCE,
    ComponentGraph,
    PartitionError,
    build_manifest,
    config_fingerprint,
    plan,
    structural_errors,
)

#: How many offending names a single finding enumerates before "...".
_LIST_LIMIT = 5


def _clip(names: Iterable[str]) -> str:
    names = list(names)
    shown = ", ".join(names[:_LIST_LIMIT])
    if len(names) > _LIST_LIMIT:
        shown += f", ... ({len(names)} total)"
    return shown


class PartitionAnalysis:
    """Component graph plus the manifest under scrutiny.

    When the context carries ``partition_k``, the manifest is planned
    here (and the rules then verify our own planner's output -- the
    planner gets no benefit of the doubt).  When the context carries a
    ``manifest`` document, that document is verified against the
    network the settings construct.
    """

    def __init__(self, ctx: LintContext):
        self.requested = (
            ctx.partition_k is not None or ctx.manifest is not None
        )
        self.tolerance = (
            ctx.partition_tolerance
            if ctx.partition_tolerance is not None
            else DEFAULT_TOLERANCE
        )
        self.threshold = ctx.lookahead_threshold
        self.graph: Optional[ComponentGraph] = None
        self.manifest: Optional[dict] = None
        self.planned = False
        self.plan_error: Optional[str] = None
        self.structural: List[str] = []
        if not self.requested or ctx.settings is None:
            return
        analysis = ctx.graph()
        if analysis.network is None:
            return  # G001 already reports the construction failure
        self.graph = ComponentGraph.from_analysis(analysis)
        if ctx.manifest is not None:
            self.manifest = ctx.manifest
            self.structural = structural_errors(ctx.manifest)
            return
        try:
            assignment = plan(
                self.graph, ctx.partition_k, tolerance=self.tolerance
            )
        except PartitionError as exc:
            self.plan_error = str(exc)
            return
        topology = ""
        try:
            topology = ctx.settings.child("network").get_str("topology")
        except Exception:
            pass
        self.manifest = build_manifest(
            self.graph,
            assignment,
            ctx.partition_k,
            topology=topology,
            fingerprint=config_fingerprint(ctx.raw),
        )
        self.planned = True

    # -- derived views --------------------------------------------------------

    def ready(self) -> bool:
        """True when the semantic rules (P001..P004) can run."""
        return (
            self.graph is not None
            and self.manifest is not None
            and not self.structural
        )

    def assignment(self) -> Dict[str, int]:
        """{component: shard} from the manifest, first assignment wins
        (P005 reports the duplicates)."""
        assert self.manifest is not None
        mapping: Dict[str, int] = {}
        for shard in self.manifest.get("shards", []):
            for name in shard.get("components", []):
                mapping.setdefault(name, shard.get("id"))
        return mapping

    def channel_map(self):
        assert self.graph is not None
        return {record.name: record for record in self.graph.channels}


# ---------------------------------------------------------------------------
# manifest rules (P001..P005)
# ---------------------------------------------------------------------------


class _PartitionRule(LintRule):
    layer = PARTITION_LAYER


class _ManifestRule(_PartitionRule):
    """Base for rules that verify a manifest against the network."""

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        analysis = ctx.partition()
        if not analysis.requested or not analysis.ready():
            return []
        return self.check_manifest(ctx, analysis)

    def check_manifest(
        self, ctx: LintContext, analysis: PartitionAnalysis
    ) -> Iterable[Finding]:
        raise NotImplementedError


@factory.register(LintRule, "P001")
class CutLatencyRule(_ManifestRule):
    rule_id = "P001"
    description = ("Cut channel with zero/invalid latency, or a manifest "
                   "latency disagreeing with the constructed channel "
                   "(lookahead would be unsound)")

    def check_manifest(self, ctx, analysis):
        channels = analysis.channel_map()
        findings = []
        for entry in analysis.manifest.get("cut_channels", []):
            name = entry.get("name")
            latency = entry.get("latency")
            if not isinstance(latency, int) or latency < 1:
                findings.append(Finding(
                    "P001",
                    Severity.ERROR,
                    f"cut channel {name!r} has latency {latency!r}; every "
                    f"shard crossing must carry >= 1 tick of latency or "
                    f"the shards cannot be synchronized conservatively",
                    config_path="partition.cut_channels",
                ))
                continue
            record = channels.get(name)
            if record is not None and record.latency != latency:
                findings.append(Finding(
                    "P001",
                    Severity.ERROR,
                    f"cut channel {name!r} declares latency {latency} but "
                    f"the constructed channel has latency "
                    f"{record.latency}; the manifest must match what "
                    f"Channel.__init__ actually received (post-override)",
                    config_path="partition.cut_channels",
                ))
        return findings


@factory.register(LintRule, "P002")
class CutCrossingRule(_ManifestRule):
    rule_id = "P002"
    description = ("Cut crossing that is not a Channel/CreditChannel of "
                   "the constructed network, or a cross-shard channel the "
                   "manifest fails to declare")

    def check_manifest(self, ctx, analysis):
        channels = analysis.channel_map()
        assignment = analysis.assignment()
        findings = []
        declared: Set[str] = set()
        for entry in analysis.manifest.get("cut_channels", []):
            name = entry.get("name")
            declared.add(name)
            record = channels.get(name)
            if record is None:
                findings.append(Finding(
                    "P002",
                    Severity.ERROR,
                    f"cut crossing {name!r} is not a Channel/CreditChannel "
                    f"of the constructed network; shards may only touch "
                    f"through latency-bearing channels",
                    config_path="partition.cut_channels",
                ))
                continue
            kind = entry.get("kind")
            if kind not in CUT_KINDS or kind != record.kind:
                findings.append(Finding(
                    "P002",
                    Severity.ERROR,
                    f"cut channel {name!r} declares kind {kind!r} but the "
                    f"constructed channel is a {record.kind} channel",
                    config_path="partition.cut_channels",
                ))
        undeclared = [
            record.name
            for record in analysis.graph.cut_channels(assignment)
            if record.name not in declared
        ]
        if undeclared:
            findings.append(Finding(
                "P002",
                Severity.ERROR,
                f"channel(s) cross shards but are not declared as cut "
                f"channels: {_clip(undeclared)}; an undeclared crossing "
                f"is shard communication the runtime would not proxy",
                config_path="partition.cut_channels",
            ))
        stale = [
            entry.get("name")
            for entry in analysis.manifest.get("cut_channels", [])
            if entry.get("name") in channels
            and assignment.get(channels[entry["name"]].source)
            == assignment.get(channels[entry["name"]].sink)
        ]
        if stale:
            findings.append(Finding(
                "P002",
                Severity.ERROR,
                f"declared cut channel(s) do not actually cross shards: "
                f"{_clip(stale)}; the runtime would build proxy queues "
                f"for intra-shard links",
                config_path="partition.cut_channels",
            ))
        return findings


@factory.register(LintRule, "P003")
class LookaheadRule(_ManifestRule):
    rule_id = "P003"
    description = ("Shard lookahead below the safety threshold or above "
                   "what the cut-channel latencies support")

    def check_manifest(self, ctx, analysis):
        manifest = analysis.manifest
        threshold = analysis.threshold
        cut = manifest.get("cut_channels", [])
        lookahead = manifest.get("lookahead", {})
        findings = []
        actual_latencies = [
            entry["latency"] for entry in cut
            if isinstance(entry.get("latency"), int)
        ]
        actual_min = min(actual_latencies) if actual_latencies else None
        declared_global = lookahead.get("global")
        if cut:
            if not isinstance(declared_global, int):
                findings.append(Finding(
                    "P003",
                    Severity.ERROR,
                    f"manifest has {len(cut)} cut channel(s) but no global "
                    f"lookahead; the runtime cannot size its "
                    f"synchronization window",
                    config_path="partition.lookahead",
                ))
            else:
                if declared_global < threshold:
                    findings.append(Finding(
                        "P003",
                        Severity.ERROR,
                        f"global lookahead {declared_global} is below the "
                        f"threshold of {threshold} tick(s); shards would "
                        f"synchronize every tick (or worse), defeating "
                        f"the partition",
                        config_path="partition.lookahead",
                    ))
                if actual_min is not None and declared_global > actual_min:
                    findings.append(Finding(
                        "P003",
                        Severity.ERROR,
                        f"global lookahead {declared_global} exceeds the "
                        f"minimum cut-channel latency {actual_min}; "
                        f"advancing that far without synchronizing "
                        f"violates causality",
                        config_path="partition.lookahead",
                    ))
        per_shard = lookahead.get("per_shard", {})
        for shard in manifest.get("shards", []):
            shard_id = shard.get("id")
            inbound = [
                entry["latency"] for entry in cut
                if entry.get("sink_shard") == shard_id
                and isinstance(entry.get("latency"), int)
            ]
            if not inbound:
                continue
            declared = per_shard.get(str(shard_id))
            if not isinstance(declared, int):
                findings.append(Finding(
                    "P003",
                    Severity.ERROR,
                    f"shard {shard_id} has {len(inbound)} inbound cut "
                    f"channel(s) but no per-shard lookahead",
                    config_path="partition.lookahead",
                ))
                continue
            bound = min(inbound)
            if declared < threshold:
                findings.append(Finding(
                    "P003",
                    Severity.ERROR,
                    f"shard {shard_id} lookahead {declared} is below the "
                    f"threshold of {threshold} tick(s)",
                    config_path="partition.lookahead",
                ))
            if declared > bound:
                findings.append(Finding(
                    "P003",
                    Severity.ERROR,
                    f"shard {shard_id} lookahead {declared} exceeds its "
                    f"minimum inbound cut-channel latency {bound}; the "
                    f"shard would simulate ticks its peers can still "
                    f"affect",
                    config_path="partition.lookahead",
                ))
        return findings


@factory.register(LintRule, "P004")
class ShardBalanceRule(_ManifestRule):
    rule_id = "P004"
    description = ("Shard weights unbalanced beyond tolerance, or an "
                   "empty shard (legal but wasteful: the slowest shard "
                   "sets the pace)")

    def check_manifest(self, ctx, analysis):
        manifest = analysis.manifest
        graph = analysis.graph
        assignment = analysis.assignment()
        k = manifest.get("k", len(manifest.get("shards", [])))
        findings = []
        weights: Dict[int, int] = {}
        for name, shard in assignment.items():
            info = graph.components.get(name)
            if info is not None and isinstance(shard, int):
                weights[shard] = weights.get(shard, 0) + info.weight
        for shard in manifest.get("shards", []):
            shard_id = shard.get("id")
            if not shard.get("components"):
                findings.append(Finding(
                    "P004",
                    Severity.WARNING,
                    f"shard {shard_id} is empty; it will idle at every "
                    f"synchronization barrier",
                    config_path="partition.shards",
                ))
                continue
            declared = shard.get("weight")
            actual = weights.get(shard_id, 0)
            if isinstance(declared, int) and declared != actual:
                findings.append(Finding(
                    "P004",
                    Severity.WARNING,
                    f"shard {shard_id} declares weight {declared} but its "
                    f"components weigh {actual}",
                    config_path="partition.shards",
                ))
        if weights and k:
            ideal = graph.total_weight / k
            heaviest = max(weights.values())
            if ideal > 0 and heaviest > analysis.tolerance * ideal:
                findings.append(Finding(
                    "P004",
                    Severity.WARNING,
                    f"heaviest shard weighs {heaviest}, more than "
                    f"{analysis.tolerance:g}x the ideal {ideal:g}; the "
                    f"partition's parallel speedup is bounded by its "
                    f"heaviest shard",
                    config_path="partition.shards",
                ))
        return findings


@factory.register(LintRule, "P005")
class PartitionCoverageRule(_PartitionRule):
    rule_id = "P005"
    description = ("Shards do not exactly partition the component set: "
                   "component in no shard, in multiple shards, or unknown "
                   "to the network (also reports malformed manifests)")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        analysis = ctx.partition()
        if not analysis.requested:
            return []
        findings = []
        if analysis.plan_error is not None:
            findings.append(Finding(
                "P005",
                Severity.ERROR,
                f"cannot plan a partition: {analysis.plan_error}",
                config_path="partition",
            ))
            return findings
        for problem in analysis.structural:
            findings.append(Finding(
                "P005",
                Severity.ERROR,
                f"manifest is malformed: {problem}",
                config_path="partition",
            ))
        if analysis.graph is None or analysis.manifest is None or (
            analysis.structural
        ):
            return findings
        seen: Dict[str, int] = {}
        duplicated: List[str] = []
        unknown: List[str] = []
        for shard in analysis.manifest.get("shards", []):
            for name in shard.get("components", []):
                if name in seen:
                    duplicated.append(name)
                seen[name] = seen.get(name, 0) + 1
                if name not in analysis.graph.components:
                    unknown.append(name)
        missing = [
            name for name in analysis.graph.components if name not in seen
        ]
        if missing:
            findings.append(Finding(
                "P005",
                Severity.ERROR,
                f"component(s) assigned to no shard: {_clip(missing)}; "
                f"every router and interface must live in exactly one "
                f"shard",
                config_path="partition.shards",
            ))
        if duplicated:
            findings.append(Finding(
                "P005",
                Severity.ERROR,
                f"component(s) assigned to multiple shards: "
                f"{_clip(sorted(set(duplicated)))}; a component simulated "
                f"twice double-counts every flit it touches",
                config_path="partition.shards",
            ))
        if unknown:
            findings.append(Finding(
                "P005",
                Severity.ERROR,
                f"component(s) unknown to the constructed network: "
                f"{_clip(sorted(set(unknown)))}",
                config_path="partition.shards",
            ))
        return findings
