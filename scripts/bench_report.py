#!/usr/bin/env python
"""Measure engine throughput and append the numbers to BENCH_engine.json.

Runs the same workloads as ``benchmarks/test_engine_throughput.py``
without the pytest harness, so a perf data point costs seconds and can
be taken on every PR:

* ``event_queue_throughput``: 200k self-rescheduling events.
* ``simulation_event_rate``: a full flit-level simulation (4x4 torus,
  IQ routers, 30% load) -- the headline model-layer metric; wall time
  includes network construction, matching the benchmarks/ methodology.
  Speed is judged in ``flit_hops_per_sec`` (simulated work per host
  second): ``events_per_sec`` is recorded beside it, but a change to
  how many events a flit-hop costs moves it without moving the speed.
* ``simulation_event_rate_folded_clos``: the same metric on a scaled
  folded-Clos / OQ-router / adaptive-routing workload (case study A).
* ``sweep_worker_scaling`` (``--sweep``): a 16-job sweep at workers=1
  vs workers=4, verifying identical rows and recording both wall times.
* ``partition_speedup`` (``--partition``): the sharded PDES runtime at
  k=2 and k=4 (one spawned worker process per shard) against the
  single-process run of the same workload, with per-shard event rates;
  on a single-core host this measures runtime overhead, qualified by
  the recorded ``cpu_count``.

Usage::

    PYTHONPATH=src python scripts/bench_report.py [--rounds N] [--sweep]
                                                  [--skip-sim]

Each measurement appends one entry to ``BENCH_engine.json`` at the repo
root; the best (minimum) time over ``--rounds`` is reported.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.simulator import Simulator  # noqa: E402
from repro.tools.sssweep import Sweep  # noqa: E402

BENCH_FILE = REPO_ROOT / "BENCH_engine.json"


def record(name: str, payload: dict) -> None:
    data: dict = {"history": []}
    if BENCH_FILE.exists():
        try:
            data = json.loads(BENCH_FILE.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            pass
    data.setdefault("history", []).append(
        {
            "name": name,
            "timestamp": datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat(timespec="seconds"),
            "source": "scripts/bench_report.py",
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            **payload,
        }
    )
    BENCH_FILE.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def event_queue_throughput(target: int = 200_000):
    simulator = Simulator()
    count = [0]

    def handler(event):
        count[0] += 1
        if count[0] < target:
            simulator.call_at(simulator.tick + 1, handler)

    for i in range(8):
        simulator.call_at(i + 1, handler)
    start = time.perf_counter()
    simulator.run()
    elapsed = time.perf_counter() - start
    return elapsed, count[0]


def bench_event_queue(rounds: int) -> None:
    best, events = min(
        (event_queue_throughput() for _ in range(rounds)),
        key=lambda pair: pair[0],
    )
    rate = events / best
    record(
        "event_queue_throughput",
        {
            "events": events,
            "seconds": best,
            "events_per_sec": rate,
            "rounds": rounds,
        },
    )
    print(f"event_queue_throughput: {events} events in {best * 1000:.1f} ms "
          f"({rate / 1000:.0f}k events/s)")


def _simulation_workloads():
    from repro.configs import latent_congestion_config
    from tests.conftest import small_torus_config

    torus = small_torus_config()
    torus["workload"]["applications"][0]["injection_rate"] = 0.3
    clos = latent_congestion_config(injection_rate=0.25, warmup=200, window=500)
    return (
        ("simulation_event_rate", torus, 100_000),
        ("simulation_event_rate_folded_clos", clos, 5_000),
    )


def _timed_simulation(config: dict, max_time: int):
    """One timed build+run, isolated from process-global packet ids.

    Packet ids feed routing decisions (see ``repro.lint.graph``), so the
    counter is restored after each round: every round then simulates the
    exact same event sequence and the timings are comparable.
    """
    import copy

    from repro import Settings, Simulation
    from repro.net.packet import preserve_packet_ids

    with preserve_packet_ids():
        start = time.perf_counter()
        simulation = Simulation(
            Settings.from_dict(copy.deepcopy(config))
        )
        simulation.run(max_time=max_time)
        elapsed = time.perf_counter() - start
        flit_hops = sum(
            channel.flits_carried
            for channel in simulation.network.flit_channels
        )
        return elapsed, simulation.simulator.executed_events, flit_hops


def bench_simulation_rate(rounds: int) -> None:
    for name, config, max_time in _simulation_workloads():
        best, events, flit_hops = min(
            (_timed_simulation(config, max_time) for _ in range(rounds)),
            key=lambda timing: timing[0],
        )
        record(
            name,
            {
                "events": events,
                "flit_hops": flit_hops,
                "seconds": best,
                "events_per_sec": events / best,
                "flit_hops_per_sec": flit_hops / best,
                "max_time": max_time,
                "rounds": rounds,
            },
        )
        print(f"{name}: {flit_hops} flit-hops, {events} events in "
              f"{best:.2f} s ({flit_hops / best / 1000:.1f}k flit-hops/s, "
              f"{events / best / 1000:.0f}k events/s)")


def _scaling_sweep() -> Sweep:
    from tests.conftest import small_torus_config

    sweep = Sweep(small_torus_config(), name="scaling", max_time=2_000)
    sweep.add_variable(
        "InjectionRate", "IR", [0.05, 0.1, 0.15, 0.2],
        lambda rate: f"workload.applications[0].injection_rate=float={rate}")
    sweep.add_variable(
        "Seed", "S", [1, 2, 3, 4],
        lambda seed: f"simulator.seed=uint={seed}")
    return sweep


def bench_sweep_scaling() -> None:
    workers = min(4, os.cpu_count() or 1)
    serial = _scaling_sweep()
    start = time.perf_counter()
    serial.run(workers=1)
    serial_s = time.perf_counter() - start
    parallel = _scaling_sweep()
    start = time.perf_counter()
    parallel.run(workers=workers)
    parallel_s = time.perf_counter() - start
    identical = json.dumps(serial.to_rows(), sort_keys=True) == json.dumps(
        parallel.to_rows(), sort_keys=True
    )
    record(
        "sweep_worker_scaling",
        {
            "jobs": len(serial.jobs),
            "workers": workers,
            "serial_seconds": serial_s,
            "parallel_seconds": parallel_s,
            "speedup": serial_s / parallel_s if parallel_s else None,
            "rows_identical": identical,
        },
    )
    print(f"sweep_worker_scaling: {len(serial.jobs)} jobs, "
          f"serial {serial_s:.2f}s vs workers={workers} {parallel_s:.2f}s "
          f"(identical rows: {identical})")
    if not identical:
        raise SystemExit("parallel sweep rows diverged from serial rows")


def bench_partition_speedup() -> None:
    """Sharded (spawn-mode) wall clock vs the single-process run.

    On a single-core container this measures the *overhead* of the PDES
    runtime (window barriers, record pickling, phantom replay -- every
    worker re-executes the full workload's generate events), not a
    speedup; the recorded ``cpu_count`` qualifies the number.  The
    digest cross-check still makes it a correctness data point.
    """
    from repro import Settings, Simulation
    from repro.net.packet import preserve_packet_ids
    from repro.partition.runtime import run_sharded
    from tests.conftest import small_torus_config

    def config() -> dict:
        return small_torus_config(
            warmup_duration=100, generate_duration=400
        )

    max_time = 50_000
    with preserve_packet_ids():
        start = time.perf_counter()
        simulation = Simulation(Settings.from_dict(config()))
        results = simulation.run(max_time=max_time)
        single_s = time.perf_counter() - start
    single_events = simulation.simulator.executed_events
    assert results.drained

    for k in (2, 4):
        workload = config()
        workload["simulator"]["max_time"] = max_time
        start = time.perf_counter()
        sharded = run_sharded(workload, k=k, shard_workers=k)
        elapsed = time.perf_counter() - start
        shards = [
            {
                "shard": report["shard"],
                "events_executed": report["events_executed"],
                "events_per_sec": report["events_executed"] / elapsed,
            }
            for report in sharded.reports
        ]
        record(
            "partition_speedup",
            {
                "k": k,
                "mode": sharded.mode,
                "windows": sharded.windows,
                "lookahead": sharded.lookahead,
                "records_exchanged": sharded.records_exchanged,
                "single_seconds": single_s,
                "single_events": single_events,
                "sharded_seconds": elapsed,
                "speedup": single_s / elapsed if elapsed else None,
                "drained": sharded.drained,
                "shards": shards,
            },
        )
        print(f"partition_speedup: k={k} ({sharded.mode}), "
              f"single {single_s:.2f}s vs sharded {elapsed:.2f}s "
              f"({sharded.windows} windows, "
              f"{sharded.records_exchanged} records)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5,
                        help="repetitions per microbenchmark (best is kept)")
    parser.add_argument("--sweep", action="store_true",
                        help="also run the (slower) sweep scaling benchmark")
    parser.add_argument("--skip-sim", action="store_true",
                        help="skip the full-simulation event-rate benchmarks")
    parser.add_argument("--sim-only", action="store_true",
                        help="run only the full-simulation event-rate "
                        "benchmarks (skip the engine microbenchmarks)")
    parser.add_argument("--partition", action="store_true",
                        help="also benchmark the sharded PDES runtime "
                        "(spawn-mode workers) against the single-process "
                        "run")
    args = parser.parse_args()
    if not args.sim_only:
        bench_event_queue(args.rounds)
    if not args.skip_sim:
        bench_simulation_rate(args.rounds)
    if args.sweep:
        bench_sweep_scaling()
    if args.partition:
        bench_partition_speedup()
    print(f"appended to {BENCH_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
