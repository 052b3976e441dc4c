#!/usr/bin/env python
"""Perf-regression smoke check for the CI gate.

Re-measures ``simulation_event_rate`` (the headline model-layer
workload, see docs/PERFORMANCE.md) and fails when its flit-hops per
second drop more than ``--tolerance`` (default 25%) below the most
recent entry of the same name in ``BENCH_engine.json`` that recorded
``flit_hops_per_sec``.  Flit-hops are simulated work and repeat
exactly; events per second are not comparable across commits that
change how many events a flit-hop costs, so entries that recorded only
``events_per_sec`` are not compared against.  The check never *writes*
the history -- appending honest numbers is
``scripts/bench_report.py``'s job -- so a slow machine cannot silently
lower the bar for the next run.

Opt-outs:

* ``SUPERSIM_SKIP_PERF=1`` skips the check entirely (exit 0) -- for
  containers whose performance is not comparable to the recorded
  history (shared CI runners, laptops on battery, ...).
* no ``simulation_event_rate`` entry with ``flit_hops_per_sec`` in the
  history: the check reports that and passes (nothing to compare
  against).

Usage::

    PYTHONPATH=src python scripts/perf_smoke.py [--rounds N]
                                                [--tolerance FRACTION]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from bench_report import BENCH_FILE, _simulation_workloads, _timed_simulation  # noqa: E402

METRIC = "simulation_event_rate"


def latest_recorded_rate() -> float | None:
    if not BENCH_FILE.exists():
        return None
    try:
        history = json.loads(BENCH_FILE.read_text(encoding="utf-8"))["history"]
    except (ValueError, KeyError, OSError):
        return None
    for entry in reversed(history):
        if entry.get("name") == METRIC and "flit_hops_per_sec" in entry:
            return float(entry["flit_hops_per_sec"])
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3,
                        help="measurement repetitions, best is kept (default 3)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional drop vs the recorded rate "
                        "(default 0.25)")
    args = parser.parse_args()

    if os.environ.get("SUPERSIM_SKIP_PERF", "") not in ("", "0"):
        print("perf_smoke: skipped (SUPERSIM_SKIP_PERF set)")
        return 0
    recorded = latest_recorded_rate()
    if recorded is None:
        print(f"perf_smoke: no {METRIC!r} entry with flit_hops_per_sec "
              f"in {BENCH_FILE.name}; nothing to compare against")
        return 0

    name, config, max_time = next(
        w for w in _simulation_workloads() if w[0] == METRIC
    )
    best, _events, flit_hops = min(
        (_timed_simulation(config, max_time) for _ in range(args.rounds)),
        key=lambda timing: timing[0],
    )
    rate = flit_hops / best
    floor = recorded * (1.0 - args.tolerance)
    verdict = "OK" if rate >= floor else "REGRESSION"
    print(f"perf_smoke: {name} = {rate / 1000:.1f}k flit-hops/s "
          f"(recorded {recorded / 1000:.1f}k, floor {floor / 1000:.1f}k "
          f"at -{args.tolerance:.0%}): {verdict}")
    if rate < floor:
        print("perf_smoke: if this machine is legitimately slower than the "
              "recorded history, set SUPERSIM_SKIP_PERF=1; if the code got "
              "slower, profile it (scripts/profile_sim.py) before shipping")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
