"""Spans around the pipeline calls and the cProfile fold into layers.

Spans are recorded by the benchmark's own files, around the calls into
each ``repro`` layer; nothing inside ``repro`` is instrumented.  They
are kept in memory and written out when the child ends.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional

#: ``repro/router/<module>.py`` files with a per-layer row of their own;
#: the rest of the package (base, arbiter, crossbar scheduler) is
#: ``router.common``.
ROUTER_MODULES = (
    "input_queued", "output_queued", "input_output_queued", "congestion",
)
#: ``repro`` packages folded to ``<package>.self_s``.
PACKAGES = (
    "core", "net", "routing", "workload", "stats", "topology", "partition",
)
#: Every ``*.self_s`` row, in print order.  ``misc`` is ``repro`` code
#: outside the named layers (config, factory, sim.py); ``other`` is code
#: outside ``repro`` (heapq, builtins, the profiler's own hooks).
LAYERS = (
    ("core", "net")
    + tuple(f"router.{module}" for module in ROUTER_MODULES)
    + ("router.common", "routing", "workload", "stats", "topology",
       "partition", "misc", "other")
)


class Tracer:
    """In-memory span recorder; ``enabled=False`` makes spans free."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path: str, header: Optional[dict] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            if header is not None:
                handle.write(json.dumps(header) + "\n")
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def durations(spans: Iterable[dict]) -> Dict[int, float]:
    """Span id -> end minus start."""
    return {s["id"]: s["end"] - s["start"] for s in spans}


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover.

    Spans come from one thread, so the children of one span never
    overlap each other and their durations simply add.
    """
    result = durations(spans)
    for span in spans:
        if span["parent"] is not None:
            result[span["parent"]] -= span["end"] - span["start"]
    return result


def sum_by_name(spans: Iterable[dict], seconds: Dict[int, float]) -> Dict[str, float]:
    """Span name -> summed ``seconds`` (a name may occur once per job)."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + seconds[span["id"]]
    return totals


def _split(filename: str, package_dir: str) -> Optional[List[str]]:
    """``filename`` as path parts below the ``repro`` package, or None."""
    prefix = package_dir + os.sep
    if not filename.startswith(prefix):
        return None
    return filename[len(prefix):].split(os.sep)


def layer_of(filename: str, package_dir: str) -> str:
    """The ``LAYERS`` entry a profiled function's file belongs to."""
    parts = _split(filename, package_dir)
    if parts is None:
        return "other"
    if len(parts) == 1:
        return "misc"
    package, module = parts[0], parts[-1][:-len(".py")]
    if package == "router":
        return f"router.{module}" if module in ROUTER_MODULES else "router.common"
    return package if package in PACKAGES else "misc"


def fold_profile(stats: dict, package_dir: str) -> Dict[str, float]:
    """Fold ``pstats.Stats(...).stats`` ``tottime`` by layer."""
    folded = {layer: 0.0 for layer in LAYERS}
    for (filename, _line, _name), entry in stats.items():
        folded[layer_of(filename, package_dir)] += entry[2]
    return folded


def ncalls(stats: dict, *functions) -> int:
    """Summed call count of the given Python functions in a profile."""
    keys = {
        (f.__code__.co_filename, f.__code__.co_firstlineno, f.__code__.co_name)
        for f in functions
    }
    return sum(entry[1] for key, entry in stats.items() if key in keys)


def ncalls_named(stats: dict, package_dir: str, package: str, name: str) -> int:
    """Summed call count of every ``name`` defined in ``repro/<package>/``."""
    total = 0
    for (filename, _line, function), entry in stats.items():
        parts = _split(filename, package_dir)
        if parts and parts[0] == package and function == name:
            total += entry[1]
    return total
