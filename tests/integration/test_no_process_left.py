"""Worker processes end with the call that started them.

A sharded run and a parallel sweep each start worker processes; both
must have joined every one of them by the time they return, so a
caller (a benchmark harness, a notebook, a CI job) is never left with
a process it did not start.
"""

from __future__ import annotations

import multiprocessing

from repro.partition.runtime import run_sharded
from repro.tools.sssweep import Sweep
from tests.conftest import small_torus_config


def test_sharded_run_leaves_no_worker_process():
    config = small_torus_config(warmup_duration=50, generate_duration=150)
    results = run_sharded(config, k=2, shard_workers=2)
    assert results.timing()["peak_in_flight"] == 2  # workers did run
    assert multiprocessing.active_children() == []


def test_parallel_sweep_leaves_no_worker_process():
    sweep = Sweep(small_torus_config(), name="reap", max_time=500)
    sweep.add_variable(
        "Seed", "S", [7, 8], lambda seed: f"simulator.seed=uint={seed}"
    )
    sweep.run(workers=2)
    assert all(job.error is None for job in sweep.jobs)
    assert multiprocessing.active_children() == []
