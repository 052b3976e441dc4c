"""Parallel sweeps: determinism and failure capture across worker counts.

The satellite requirement: the same seed + the same sweep run with
``workers=1`` and ``workers=4`` must produce byte-identical
``to_rows()`` output.  Each simulation is independently seeded from its
resolved settings, so where a job executes cannot leak into its result.
"""

import json

import pytest

from repro.tools.sssweep import Sweep
from tests.conftest import small_torus_config


def _make_sweep():
    sweep = Sweep(small_torus_config(), name="det", max_time=1_500)
    sweep.add_variable(
        "InjectionRate", "IR", [0.1, 0.2],
        lambda rate: f"workload.applications[0].injection_rate=float={rate}")
    sweep.add_variable(
        "Seed", "S", [7, 8],
        lambda seed: f"simulator.seed=uint={seed}")
    return sweep


def test_parallel_sweep_rows_byte_identical_to_serial():
    serial = _make_sweep()
    serial.run(workers=1)
    parallel = _make_sweep()
    parallel.run(workers=4)
    assert json.dumps(serial.to_rows(), sort_keys=True) == json.dumps(
        parallel.to_rows(), sort_keys=True
    )
    # And jobs landed in cross-product order with real results.
    assert [job.job_id for job in parallel.jobs] == [
        "IR0.1_S7", "IR0.1_S8", "IR0.2_S7", "IR0.2_S8",
    ]
    assert all(job.result is not None for job in parallel.jobs)
    assert all(job.error is None for job in parallel.jobs)


def test_parallel_sweep_observer_sees_every_job():
    sweep = _make_sweep()
    seen = []
    sweep.run(observer=lambda job: seen.append(job.job_id), workers=2)
    assert seen == [job.job_id for job in sweep.jobs]


def test_parallel_sweep_captures_per_job_failure():
    sweep = Sweep(small_torus_config(), name="bad", max_time=500)
    # An override naming a bogus topology fails inside the worker; the
    # error must come back attached to the right job.
    sweep.add_variable(
        "Topology", "T", ["torus", "no_such_topology"],
        lambda t: f"network.topology=string={t}")
    sweep.run(workers=2)
    good, bad = sweep.jobs
    assert good.error is None and good.result is not None
    assert bad.error is not None and bad.result is None
    rows = sweep.to_rows()
    assert "error" in rows[1] and "error" not in rows[0]


def test_unpicklable_collect_runs_inline_with_identical_rows():
    """One job path for every worker count: a ``collect`` that cannot be
    shipped to a worker makes its jobs run inline, not fail."""
    def run(workers):
        sweep = _make_sweep()
        sweep.collect = lambda results: {"end": results.end_tick}
        sweep.run(workers=workers)
        assert all(job.error is None for job in sweep.jobs)
        return sweep.to_rows()

    assert run(1) == run(2)
