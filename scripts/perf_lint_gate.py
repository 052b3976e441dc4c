#!/usr/bin/env python
"""Perf-lint gate for CI: fail on NEW hot-path hazards (H-rules).

``sslint`` exits non-zero only on *error*-severity findings, and every
H-rule finding is a warning (or an info, under ``--profile``
demotion): advisory for humans, but a gate must still stop a PR that
introduces a brand-new hazard on a hot path.  This script runs the
perf layer over ``src/repro`` with the committed baseline
(``lint-perf-baseline.json``) applied and fails when any finding
survives -- i.e. when its evidence-chain fingerprint is not in the
baseline.

Accepting a new hazard deliberately (or after fixing old ones) means
refreshing the baseline::

    PYTHONPATH=src python -m repro.tools.sslint src/repro --layer perf \
        --write-baseline lint-perf-baseline.json

Usage::

    PYTHONPATH=src python scripts/perf_lint_gate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

BASELINE = REPO_ROOT / "lint-perf-baseline.json"
SOURCES = REPO_ROOT / "src" / "repro"


def main() -> int:
    if not BASELINE.exists():
        print(f"perf-lint gate: missing baseline {BASELINE}", file=sys.stderr)
        return 1

    from repro.tools.sslint import sslint_main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exit_code = sslint_main([
            str(SOURCES),
            "--layer", "perf",
            "--baseline", str(BASELINE),
            "--format", "json",
        ])
    if exit_code != 0:
        # Error-severity findings never come from H-rules; something in
        # the lint run itself failed.
        sys.stderr.write(stdout.getvalue())
        print("perf-lint gate: sslint failed", file=sys.stderr)
        return exit_code

    payload = json.loads(stdout.getvalue())
    new = [
        finding
        for report in payload["reports"]
        for finding in report.get("findings", [])
    ]
    if not new:
        print("perf-lint gate: no new hot-path hazards")
        return 0
    print(
        f"perf-lint gate: {len(new)} NEW hot-path hazard(s) not in "
        f"{BASELINE.name}:"
    )
    for finding in new:
        print(f"  {finding.get('rule_id')}: {finding.get('message')}")
    print(
        "fix the hazard, or refresh the baseline deliberately:\n"
        "  PYTHONPATH=src python -m repro.tools.sslint src/repro "
        "--layer perf --write-baseline lint-perf-baseline.json"
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
