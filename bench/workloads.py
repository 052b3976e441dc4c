"""The benchmark's workloads: seed -> config JSON files.

Every workload is a ``repro.configs`` case-study builder at a fixed
size with ``simulator.seed`` taken from the benchmark seed.  The
pipeline (``bench.pipeline``) receives only the generated file and reads
it through ``Settings.from_file``.

Sizes are set so one pipeline takes 2-3 s on a 2-core sandbox: the
driver's time cap (114 runs in 3420 s) leaves ~20 s per invocation, and
a median needs several repetitions inside that.  Steadiness comes from
the repetition count, not from the length of one run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, List

from bench.pipeline import SWEEP_JOBS
from repro.configs import (
    credit_accounting_config,
    flow_control_config,
    latent_congestion_config,
)

DEFAULT_SEED = 12345


@dataclass(frozen=True)
class Workload:
    name: str
    #: Which pipeline runs it: "single" (supersim + ssparse), "sweep"
    #: (16-job sssweep, 2 workers) or "sharded" (run_sharded, k=2, spawn).
    kind: str
    build: Callable[[int], dict]
    #: Drain expectation: True = must drain with every sampled message
    #: delivered; False = saturated by design, cut off at max_time.
    drains: bool
    why: str

    @property
    def operations(self) -> int:
        """Simulations per repetition (the unit of attempted/failed)."""
        return SWEEP_JOBS if self.kind == "sweep" else 1


def _saturated(seed: int) -> dict:
    config = flow_control_config(
        message_size=32, injection_rate=0.9, warmup=200, window=300, seed=seed
    )
    # Offered load exceeds what DOR on a torus accepts, so the network
    # never drains; stop 200 ticks after the sampling window closes.
    config["simulator"]["max_time"] = 700
    return config


WORKLOADS: List[Workload] = [
    Workload(
        "torus_iq_uniform", "single",
        lambda seed: flow_control_config(
            message_size=4, injection_rate=0.3, warmup=300, window=700,
            seed=seed),
        True,
        "4x4x4 torus, IQ routers, DOR at 30% load: low contention, so the "
        "fused _step fast paths do most of the work (ROADMAP item 2 target)",
    ),
    Workload(
        "torus_iq_saturated", "single", _saturated, False,
        "same network at 90% load with 32-flit messages: full buffers and "
        "credit stalls; a shortcut for the uncontended case shows no gain "
        "here; peak flits in flight",
    ),
    Workload(
        "clos_oq_adaptive", "single",
        lambda seed: latent_congestion_config(
            injection_rate=0.4, warmup=50, window=100, seed=seed),
        True,
        "folded Clos, OQ routers, adaptive uprouting over the credit sensor, "
        "single-flit messages: no IQ code; routing, log write and ssparse "
        "shares are largest",
    ),
    Workload(
        "sweep16_hyperx_ioq", "sweep",
        lambda seed: credit_accounting_config(
            warmup=100, window=300, seed=seed),
        True,
        "16 short HyperX/IOQ/UGAL jobs on 2 workers: per-job config, lint, "
        "build and process-pool cost dominate; only cover for IOQ and the "
        "2x channel clock",
    ),
    Workload(
        "sharded_k2_torus", "sharded",
        lambda seed: flow_control_config(
            message_size=4, injection_rate=0.3, warmup=100, window=300,
            seed=seed),
        True,
        "the 30% torus through lint_partition and run_sharded(k=2, spawn): "
        "the only workload that executes repro.partition (ROADMAP item 3)",
    ),
]


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    known = ", ".join(w.name for w in WORKLOADS)
    raise KeyError(f"unknown workload {name!r}; known: {known}")


def write_config(workload: Workload, seed: int, out_dir: str) -> str:
    """Generate ``workload``'s config for ``seed``; returns the file path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload.name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(workload.build(seed), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
