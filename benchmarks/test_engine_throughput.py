"""Simulator engine microbenchmarks (not a paper figure).

Raw event throughput of the DES core and end-to-end simulation
throughput (flit-hops/second) for a representative network.  Useful for
tracking the performance impact of engine changes -- the scaled
experiment sizes in this repository assume the engine sustains roughly
10^5 events per second.

Every measurement is appended to ``BENCH_engine.json`` (repo root) so
the perf trajectory across PRs stays visible; ``scripts/bench_report.py``
runs the same workloads standalone.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import Settings, Simulation
from repro.core.event import Event
from repro.core.simulator import Simulator
from repro.tools.sssweep import Sweep
from tests.conftest import small_torus_config

from .conftest import record_engine_bench

pytestmark = pytest.mark.perf


def _self_rescheduling_run(simulator: Simulator, target: int = 200_000) -> int:
    """The canonical engine workload: 8 chains of self-rescheduling events."""
    count = [0]

    def handler(event):
        count[0] += 1
        if count[0] < target:
            simulator.call_at(simulator.tick + 1, handler)

    for i in range(8):
        simulator.call_at(i + 1, handler)
    simulator.run()
    return count[0]


@pytest.mark.benchmark(group="engine")
def test_event_queue_throughput(benchmark):
    """Schedule-and-execute cost of 200k self-rescheduling events."""

    def run_engine():
        return _self_rescheduling_run(Simulator())

    executed = benchmark.pedantic(run_engine, rounds=1, iterations=1)
    # Each of the 8 seed chains overshoots the shared counter by at
    # most one event.
    assert 200_000 <= executed <= 200_008
    seconds = benchmark.stats.stats.mean
    record_engine_bench(
        "event_queue_throughput",
        {
            "events": executed,
            "seconds": seconds,
            "events_per_sec": executed / seconds,
        },
    )


@pytest.mark.benchmark(group="engine")
def test_simulation_event_rate(benchmark):
    """Flit-hops per wall-second for a 4x4 torus at 30% load.

    The work is counted in flit-hops (the sum of ``flits_carried`` over
    the flit channels): a phase wheel packs a whole network phase into
    one engine event, so the engine event count says nothing about how
    much was simulated.
    """

    def run_sim():
        config = small_torus_config()
        config["workload"]["applications"][0]["injection_rate"] = 0.3
        simulation = Simulation(Settings.from_dict(config))
        simulation.run(max_time=100_000)
        flit_hops = sum(
            channel.flits_carried
            for channel in simulation.network.flit_channels
        )
        return simulation.simulator.executed_events, flit_hops

    events, flit_hops = benchmark.pedantic(run_sim, rounds=1, iterations=1)
    assert flit_hops > 30_000  # 36 396 when run in a fresh process
    seconds = benchmark.stats.stats.mean
    record_engine_bench(
        "simulation_event_rate",
        {
            "events": events,
            "flit_hops": flit_hops,
            "seconds": seconds,
            "events_per_sec": events / seconds,
            "flit_hops_per_sec": flit_hops / seconds,
        },
    )
    print(f"\nsimulation rate: {flit_hops / seconds / 1000:.1f}k flit-hops/s "
          f"({flit_hops} flit-hops, {events} events in {seconds:.2f}s)")


def _scaling_sweep() -> Sweep:
    sweep = Sweep(small_torus_config(), name="scaling", max_time=2_000)
    sweep.add_variable(
        "InjectionRate", "IR", [0.05, 0.1, 0.15, 0.2],
        lambda rate: f"workload.applications[0].injection_rate=float={rate}")
    sweep.add_variable(
        "Seed", "S", [1, 2, 3, 4],
        lambda seed: f"simulator.seed=uint={seed}")
    return sweep


@pytest.mark.slow
@pytest.mark.benchmark(group="engine")
def test_sweep_worker_scaling(benchmark):
    """16-job sweep at workers=1 vs workers=4: identical rows, wall time.

    Row identity must hold on any machine.  The < 0.5x wall-time target
    only makes sense with >= 4 real cores, so the speedup assertion is
    gated on the core count; both times are recorded either way.
    """
    import time

    workers = min(4, os.cpu_count() or 1)

    def run_scaling():
        serial = _scaling_sweep()
        t0 = time.perf_counter()
        serial.run(workers=1)
        serial_s = time.perf_counter() - t0
        parallel = _scaling_sweep()
        t0 = time.perf_counter()
        parallel.run(workers=workers)
        parallel_s = time.perf_counter() - t0
        return serial, parallel, serial_s, parallel_s

    serial, parallel, serial_s, parallel_s = benchmark.pedantic(
        run_scaling, rounds=1, iterations=1
    )
    rows_serial = json.dumps(serial.to_rows(), sort_keys=True)
    rows_parallel = json.dumps(parallel.to_rows(), sort_keys=True)
    assert rows_serial == rows_parallel
    assert len(serial.jobs) == 16
    record_engine_bench(
        "sweep_worker_scaling",
        {
            "jobs": len(serial.jobs),
            "workers": workers,
            "serial_seconds": serial_s,
            "parallel_seconds": parallel_s,
            "speedup": serial_s / parallel_s if parallel_s else None,
        },
    )
    if (os.cpu_count() or 1) >= 4:
        assert parallel_s < 0.5 * serial_s, (
            f"workers={workers} took {parallel_s:.2f}s vs "
            f"serial {serial_s:.2f}s"
        )
