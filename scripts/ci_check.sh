#!/usr/bin/env bash
# CI gate: tier-1 tests, style/type checks (when the tools exist), and
# sslint over everything the repo ships.
#
# Usage: scripts/ci_check.sh [--fast]
#   --fast  skip the tier-1 pytest run (lint gates only)
#
# Exit status is non-zero if any executed gate fails.  ruff and mypy
# are optional: this container does not bake them in, so their gates
# report SKIPPED instead of failing when the tool is absent (their
# configuration lives in pyproject.toml and applies wherever they are
# installed).

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

# 1. Tier-1 test suite (see ROADMAP.md).
if [ "${FAST}" = "0" ]; then
    run_gate "pytest (tier-1)" python -m pytest -x -q
else
    skip_gate "pytest (tier-1)" "--fast"
fi

# 2. Style: ruff over the cleaned packages.
if command -v ruff >/dev/null 2>&1; then
    run_gate "ruff" ruff check src/repro/core src/repro/tools
else
    skip_gate "ruff" "not installed"
fi

# 3. Types: mypy over the packages pyproject declares.
if command -v mypy >/dev/null 2>&1; then
    run_gate "mypy" mypy
else
    skip_gate "mypy" "not installed"
fi

# 4. sslint: every example script and every packaged source file
#    (determinism, dataflow and shard-isolation source layers) and
#    every built-in benchmark config (config + graph layers).  sslint
#    exits non-zero on any error-severity finding.
run_gate "sslint (examples + src/repro + builtin configs)" \
    python -m repro.tools.sslint examples/ src/repro --builtin all \
    --format json

# 5. Sanitizer smoke tier: every built-in config runs briefly under the
#    runtime sanitizers (credit/flit/event conservation, determinism
#    hashing).  See docs/SANITIZERS.md.
run_gate "sanitize smoke (builtin configs)" \
    python scripts/sanitize_smoke.py

# 6. Partition gate: every builtin config must plan a 4-way partition
#    with zero unexpected P/S-errors, lookahead >= 1, byte-identical
#    manifests, and a structurally valid SARIF export; every builtin
#    model class must keep its expected shard-purity classification
#    (S-rules, see docs/LINTING.md).  See docs/PARTITIONING.md.
run_gate "partition gate (builtin configs @ k=4)" \
    python scripts/partition_gate.py

# 7. Perf-regression smoke: simulation_event_rate must stay within 25%
#    of the latest BENCH_engine.json entry.  SUPERSIM_SKIP_PERF=1 opts
#    out on machines not comparable to the recorded history.
if [ "${SUPERSIM_SKIP_PERF:-0}" != "0" ]; then
    skip_gate "perf smoke (simulation_event_rate)" "SUPERSIM_SKIP_PERF set"
else
    run_gate "perf smoke (simulation_event_rate)" \
        python scripts/perf_smoke.py
fi

# 8. Perf-lint gate: the hot-path H-rules (static perf audit, see
#    docs/LINTING.md) run over src/repro against the committed
#    fingerprint baseline; only NEW hazards fail.  Refresh the
#    baseline deliberately with --write-baseline after fixing or
#    accepting findings.
run_gate "perf lint (H-rules vs baseline)" \
    python scripts/perf_lint_gate.py

echo
if [ "${FAILURES}" -ne 0 ]; then
    echo "ci_check: ${FAILURES} gate(s) failed"
    exit 1
fi
echo "ci_check: all executed gates passed"
