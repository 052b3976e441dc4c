#!/usr/bin/env python
"""Sanitizer smoke tier: every built-in config, briefly, under all
runtime sanitizers.

Run as a CI gate (scripts/ci_check.sh) or by hand::

    PYTHONPATH=src python scripts/sanitize_smoke.py [--ticks N]

Each built-in benchmark config is simulated for a short tick budget
with ``repro.sanitize`` fully attached (credit, flit, event, det).
Any invariant violation -- a credit leak, an out-of-order flit, an
event firing twice -- fails the gate with the sanitizer's
message.  A clean pass prints per-config check counts, which should
be comfortably non-zero: a sanitizer that made zero checks is wired
to nothing.

Exit status: 0 all clean, 1 violation or zero-check wiring problem.
"""

from __future__ import annotations

import argparse
import sys

from repro import configs
from repro.config.settings import Settings
from repro.sanitize import SanitizerError, attach_sanitizers
from repro.sim import Simulation

BUILTIN_CONFIGS = (
    "flow_control_config",
    "credit_accounting_config",
    "latent_congestion_config",
    "blast_pulse_config",
)


def smoke(name: str, ticks: int) -> bool:
    config = getattr(configs, name)()
    settings = Settings.from_dict(config)
    simulation = Simulation(settings)
    try:
        with attach_sanitizers(simulation, "all") as suite:
            simulation.run(max_time=ticks)
            suite.finish()
            report = suite.report()
    except SanitizerError as exc:
        print(f"FAIL {name}: {exc}")
        return False
    checks = {san: r.get("checks", 0) for san, r in report.items()}
    if not all(checks.values()):
        idle = sorted(san for san, n in checks.items() if not n)
        print(f"FAIL {name}: sanitizers made zero checks: {idle}")
        return False
    summary = ", ".join(f"{san}={n}" for san, n in sorted(checks.items()))
    print(f"ok   {name}: {summary}")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ticks",
        type=int,
        default=1500,
        help="simulated tick budget per config (default: 1500)",
    )
    args = parser.parse_args(argv)
    ok = True
    for name in BUILTIN_CONFIGS:
        ok = smoke(name, args.ticks) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
