#!/usr/bin/env bash
# CI gate.  Fourteen gates:
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
#   9. lint pins the lint dependency trace reproduces every pinned channel
#                dependency graph (tests/lint/test_cdg_pins.py), the call-graph
#                reach its tests (tests/lint/test_callgraph.py) and the shard
#                layer (S002-S005) its pinned verdicts, fingerprints and bench
#                partition (tests/lint/test_shard_pins.py); the sslint gate
#                only looks for error findings
#  10. delivery  the delivery goldens (tests/net/test_delivery_golden.py):
#                the only fast gate over dragonfly, adaptive torus,
#                Valiant/UGAL and parking-lot routing; the head-hop VC
#                tests (tests/integration/test_head_hop_vcs.py): every
#                head hop on HyperX/dragonfly takes the hop-count VC, and
#                every dependency a run takes is a certified lint edge;
#                the sharded two-phase runs, which match single-process
#                with multi-flit packets (hop_count crosses the cut in the
#                head record); and run identity: one config run twice in
#                a process, with other work between, and a sweep at 1 and
#                4 workers give equal results (routing reads packet ids,
#                which each simulation's network numbers from zero)
#  11. bench     one short sharded_k2_torus run must reproduce bench/pins.json
#                (the only fast gate that runs repro.partition, its cut
#                channel proxies and the cross-shard record rebuild)
#  12. crossbar  the crossbar scheduler, arbiter and router step-order tests
#                (tests/router/test_scheduler_properties.py,
#                test_crossbar_scheduler.py, test_arbiter.py,
#                test_iq_step_order.py, test_oq_ioq_step_order.py) and the
#                arbiter census (test_one_arbiter_per_router_and_role in
#                tests/integration/test_live_objects_bounded.py): grant()
#                reads the routers' flat input tables, each router holds
#                one arbiter per role with a slot per output port or VC,
#                and no other fast gate drives them with contested,
#                locked or stalled bidders
#  13. credits   credit accounting (tests/net/test_credit.py, the
#                sanitizers' pinned check counts on the builtin configs
#                and their detach test, and the output-side census in
#                tests/integration/test_live_objects_bounded.py):
#                take_credit/give_credit are CreditSan's hook points,
#                so a hot path that bypasses them changes a pinned count
#  14. settings  declaration/construction agreement
#                (tests/config/test_declarations.py and
#                tests/lint/test_config_rules.py): for every declared
#                key, lint reports a value exactly when construction
#                refuses it; the builtin configs read only declared
#                keys; docs/CONFIGURATION.md states the declared defaults
#
# Usage: scripts/ci_check.sh [--fast]
#   --fast  run only sslint, the five bench smokes, the lint pins, the
#           delivery tests, the crossbar tests, the credit accounting
#           tests and the settings agreement tests (~54 s on 2 idle
#           cores, ~2 s of it the lint pins, ~25 s the delivery tests,
#           ~4 s the crossbar tests, ~11 s the credit accounting tests
#           and ~3 s the settings tests; a loaded host takes ~2x)
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
run_gate "lint pins (dependency trace, call-graph reach, shard layer)" \
    python -m pytest -q tests/lint/test_cdg_pins.py \
    tests/lint/test_callgraph.py tests/lint/test_shard_pins.py
run_gate "delivery (goldens, head-hop VCs, sharded two-phase, run identity)" \
    python -m pytest -q tests/net/test_delivery_golden.py \
    tests/integration/test_head_hop_vcs.py \
    tests/partition/test_sharded_golden.py::test_sharded_two_phase_matches_single_process \
    tests/integration/test_determinism_and_scale.py::test_same_config_runs_alike_after_unrelated_work \
    tests/tools/test_sweep_parallel.py::test_parallel_sweep_rows_byte_identical_to_serial
run_gate "bench smoke (sharded_k2_torus pins)" \
    python3 bench/run.py --workload sharded_k2_torus --reps 1 --seconds 2
run_gate "crossbar scheduler, arbiters and router step order" \
    python -m pytest -q tests/router/test_scheduler_properties.py \
    tests/router/test_crossbar_scheduler.py tests/router/test_arbiter.py \
    tests/router/test_iq_step_order.py tests/router/test_oq_ioq_step_order.py \
    tests/integration/test_live_objects_bounded.py::test_one_arbiter_per_router_and_role
credit_accounting() {
    python -m pytest -q tests/net/test_credit.py \
        tests/integration/test_live_objects_bounded.py &&
    python -m pytest -q tests/sanitize/test_sanitizers.py \
        -k "builtin_configs or detach"
}
run_gate "credit accounting (credit API, CreditSan counts, census)" \
    credit_accounting
run_gate "settings: declaration/construction agreement" \
    python -m pytest -q tests/config/test_declarations.py \
    tests/lint/test_config_rules.py

echo
if [ "${FAILURES}" -ne 0 ]; then
    echo "ci_check: ${FAILURES} gate(s) failed"
    exit 1
fi
echo "ci_check: all executed gates passed"
