"""Benchmark harness helpers.

Every benchmark regenerates one table or figure from the paper's
evaluation (§VI).  Conventions:

* Simulations run once per bench (``benchmark.pedantic(rounds=1)``) --
  a flit-level simulation is the workload, not a microbenchmark.
* Default configurations are scaled down per DESIGN.md; set
  ``REPRO_FULL_SCALE=1`` to run the paper-sized networks (slow!).
* Each bench writes its regenerated series under
  ``benchmarks/results/`` as CSV plus an ASCII rendering, and prints
  the table it reproduces.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro import Settings, Simulation

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "") not in ("", "0")


def run_sim(config: dict, max_time: int = 60_000):
    """Build and run one simulation from a config dict."""
    simulation = Simulation(Settings.from_dict(config))
    results = simulation.run(max_time=max_time)
    return results


def results_path(name: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR / name


def emit(plot_data, name: str) -> None:
    """Persist a PlotData as CSV + ASCII under benchmarks/results/."""
    plot_data.write_csv(str(results_path(f"{name}.csv")))
    with open(results_path(f"{name}.txt"), "w", encoding="utf-8") as handle:
        handle.write(plot_data.render_ascii())


@pytest.fixture
def full_scale():
    return FULL_SCALE
