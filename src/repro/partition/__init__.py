"""repro.partition: static partition planning for parallel simulation.

The road to PDES (ROADMAP item 2) starts before any worker process
exists: given a config, compute a good k-way shard assignment of the
network's components and *prove it safe* -- every shard crossing is a
latency-bearing channel, so conservative lookahead synchronization
works.  This package owns planning and execution:

* :mod:`repro.partition.graph` -- the component graph (routers,
  interfaces, channels with post-override latencies), extracted from
  the lint layer's no-simulate network constructor.
* :mod:`repro.partition.planner` -- deterministic greedy + KL-refined
  k-way partitioning, weighted by router radix, minimizing cut
  channels.
* :mod:`repro.partition.manifest` -- the JSON partition manifest the
  runtime consumes verbatim (shard membership, cut channels, per-shard
  conservative lookahead).
* :mod:`repro.partition.runtime` -- the sharded executor itself:
  conservative barrier windows of ``lookahead`` ticks, proxy channel
  endpoints serializing cut traffic as record streams
  (:mod:`repro.partition.proxy`), in-process or worker processes, and
  merged results that are digest-equal to the single-process run.
  Imported lazily (``from repro.partition.runtime import run_sharded``)
  so planning stays dependency-free.

Verifying manifests, planned or hand-written, is the P-rule lint
layer in :mod:`repro.lint.partition_rules`.  Entry points: ``sslint
--partition K``, ``supersim --partition-plan K`` (plan only),
``supersim --partition K [--shard-workers N]`` (execute), and
``sssweep --partition K``.  See docs/PARTITIONING.md.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.partition.graph import ComponentGraph, ComponentInfo
from repro.partition.manifest import (
    CUT_KINDS,
    MANIFEST_VERSION,
    ManifestError,
    build_manifest,
    config_fingerprint,
    load_manifest,
    structural_errors,
    to_canonical_json,
    write_manifest,
)
from repro.partition.planner import DEFAULT_TOLERANCE, PartitionError, plan

__all__ = [
    "CUT_KINDS",
    "DEFAULT_TOLERANCE",
    "MANIFEST_VERSION",
    "ComponentGraph",
    "ComponentInfo",
    "ManifestError",
    "PartitionError",
    "build_manifest",
    "config_fingerprint",
    "load_manifest",
    "plan",
    "plan_partition",
    "structural_errors",
    "to_canonical_json",
    "write_manifest",
]


def plan_partition(
    settings,
    k: int,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Dict[str, Any]:
    """Construct the network for ``settings`` and plan a k-way manifest.

    Convenience wrapper over the full pipeline (network construction ->
    component graph -> planner -> manifest).  Raises
    :class:`PartitionError` when the network cannot be built; use the
    lint entry points for diagnostics instead of exceptions.
    """
    from repro.lint.graph import GraphAnalysis

    analysis = GraphAnalysis(settings, max_pairs=0)
    if analysis.network is None:
        raise PartitionError(
            f"network construction failed: {analysis.construction_error}"
        )
    graph = ComponentGraph.from_analysis(analysis)
    assignment = plan(graph, k, tolerance=tolerance)
    topology = ""
    try:
        topology = settings.child("network").get_str("topology")
    except Exception:  # settings may be partial in tests
        pass
    return build_manifest(
        graph,
        assignment,
        k,
        topology=topology,
        fingerprint=config_fingerprint(settings.raw()),
    )
