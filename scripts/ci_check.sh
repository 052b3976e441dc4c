#!/usr/bin/env bash
# CI gate.  Nine gates:
#   1. tier-1    pytest over tests/ (the behavioural gate; see ROADMAP.md)
#   2. ruff      style over the cleaned packages (SKIPPED when absent)
#   3. mypy      types over the packages pyproject declares (SKIPPED when absent)
#   4. sslint    examples, src/repro and the builtin configs: no error finding
#   5. bench     one short torus_iq_uniform run must reproduce bench/pins.json
#   6. bench     one short torus_iq_saturated run must reproduce bench/pins.json
#                (the only workload the contested crossbar grants carry)
#   7. bench     one short clos_oq_adaptive run must reproduce bench/pins.json
#                (the OQ router, adaptive routing and congestion sensor path)
#   8. bench     one short sweep16_hyperx_ioq run must reproduce bench/pins.json
#                (IOQ routers, hyperx_ugal and the 2x channel clock)
#   9. cdg pins  the lint dependency trace reproduces every pinned channel
#                dependency graph (tests/lint/test_cdg_pins.py); the sslint
#                gate only looks for error findings
#
# Usage: scripts/ci_check.sh [--fast]
#   --fast  run only sslint, the four bench smokes and the CDG pins
#           (~16 s on 2 cores, ~3 s of it the CDG pins)
#
# Exit status is non-zero if any executed gate fails.  ruff and mypy
# are optional: their configuration lives in pyproject.toml and applies
# wherever they are installed.

set -u
cd "$(dirname "$0")/.."

export PYTHONPATH=src
FAILURES=0
FAST=0
[ "${1:-}" = "--fast" ] && FAST=1

run_gate() {
    local name="$1"
    shift
    echo "==> ${name}"
    if "$@"; then
        echo "    ${name}: OK"
    else
        echo "    ${name}: FAILED"
        FAILURES=$((FAILURES + 1))
    fi
}

skip_gate() {
    echo "==> $1"
    echo "    $1: SKIPPED ($2)"
}

if [ "${FAST}" = "0" ]; then
    run_gate "pytest (tier-1)" python -m pytest -x -q
    if command -v ruff >/dev/null 2>&1; then
        run_gate "ruff" ruff check src/repro/core src/repro/tools
    else
        skip_gate "ruff" "not installed"
    fi
    if command -v mypy >/dev/null 2>&1; then
        run_gate "mypy" mypy
    else
        skip_gate "mypy" "not installed"
    fi
fi

run_gate "sslint (examples + src/repro + builtin configs)" \
    python -m repro.tools.sslint examples/ src/repro --builtin all \
    --format json

# bench/run.py exits non-zero when the simulated statistics differ from
# the pinned SHA-256; its rates are reported, not judged.
run_gate "bench smoke (torus_iq_uniform pins)" \
    python3 bench/run.py --workload torus_iq_uniform --reps 1 --seconds 2
run_gate "bench smoke (torus_iq_saturated pins)" \
    python3 bench/run.py --workload torus_iq_saturated --reps 1 --seconds 2
run_gate "bench smoke (clos_oq_adaptive pins)" \
    python3 bench/run.py --workload clos_oq_adaptive --reps 1 --seconds 2
run_gate "bench smoke (sweep16_hyperx_ioq pins)" \
    python3 bench/run.py --workload sweep16_hyperx_ioq --reps 1 --seconds 2
run_gate "cdg pins (lint dependency trace)" \
    python -m pytest -q tests/lint/test_cdg_pins.py

echo
if [ "${FAILURES}" -ne 0 ]; then
    echo "ci_check: ${FAILURES} gate(s) failed"
    exit 1
fi
echo "ci_check: all executed gates passed"
