"""The hot-path perf analyzer (H-rules) and its consumers.

Three layers of coverage:

* the heat-propagation pass: per-event entry points seed the weights,
  helpers inherit them interprocedurally, construction-time code never
  enters the audit;
* one mutation fixture per H-rule (``fixtures/perf_hazards.py``),
  asserted rule-by-rule -- proof each rule actually fires, with the
  evidence chain naming the entry point;
* the consumers: the ``perf`` layer in ``sslint`` (``--layer perf``,
  ``--list-rules``) and SARIF fingerprint stability for
  H-findings.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.lint import PERF_LAYER, lint_sources
from repro.lint.callgraph import ClassGraph, propagate_heat
from repro.lint.findings import Finding, Severity
from repro.lint.perf_rules import (
    HEAT_ENTRIES,
    HOT_THRESHOLD,
    analyze_class_perf,
)
from repro.lint.sarif import fingerprint
from repro.tools.sslint import sslint_main

from tests.lint.fixtures import perf_hazards as fx

FIXTURE_PATH = str(
    pathlib.Path(__file__).parent / "fixtures" / "perf_hazards.py"
)


def _own_hazards(cls, kind="routing"):
    """Hazards of ``cls`` defined by the fixture itself (not inherited)."""
    return [
        hazard
        for hazard in analyze_class_perf(cls, kind)
        if hazard.owner == cls.__name__
    ]


# -- heat propagation --------------------------------------------------------


def test_entry_points_seed_the_heat_map():
    from repro.router.input_queued import InputQueuedRouter

    heat = propagate_heat(
        ClassGraph(InputQueuedRouter), HEAT_ENTRIES["router"]
    )
    assert heat["_step"].weight == 5.0
    assert heat["_step"].path == ("_step",)
    # The core traversal is no entry point any more: its landing is hot
    # because the step calls it, on every architecture.
    assert "_core_arrival" not in HEAT_ENTRIES["router"]
    assert heat["_land_core_arrivals"].path == ("_step", "_land_core_arrivals")
    assert heat["receive_flit"].weight == 1.0


def test_wheel_loops_are_audited_per_item():
    """One engine event fires a wheel per phase, but its loop runs once
    per landed item / device step, so it is seeded like a per-item
    handler -- and the per-link batch handler it replaced is gone."""
    from repro.core.wheel import PhaseWheel
    from repro.lint.perf_rules import _framework_classes
    from repro.net.channel import _LandingWheel

    assert "_deliver_batch" not in HEAT_ENTRIES["channel"]
    assert {("wheel", PhaseWheel), ("wheel", _LandingWheel)} <= set(
        _framework_classes()
    )
    for cls in (PhaseWheel, _LandingWheel):
        heat = propagate_heat(ClassGraph(cls), HEAT_ENTRIES["wheel"])
        assert heat["_drain"].weight == 2.0
    # The landing loop re-registers links: add() is hot through it.
    assert heat["add"].path == ("_drain", "add")


def test_helpers_inherit_heat_interprocedurally():
    from repro.router.input_queued import InputQueuedRouter

    heat = propagate_heat(
        ClassGraph(InputQueuedRouter), HEAT_ENTRIES["router"]
    )
    # _run_crossbar is reached from the hottest entry; the evidence
    # path must start at that entry.
    crossbar = heat["_run_crossbar"]
    assert crossbar.weight == 5.0
    assert crossbar.path[0] == "_step"
    assert crossbar.path[-1] == "_run_crossbar"


def test_construction_time_code_stays_cold():
    from repro.router.input_queued import InputQueuedRouter

    heat = propagate_heat(
        ClassGraph(InputQueuedRouter), HEAT_ENTRIES["router"]
    )
    assert "__init__" not in heat
    assert "_finalize_arch" not in heat


def test_cold_fixture_is_never_flagged():
    assert _own_hazards(fx.ColdSetupRouting) == []


# -- one fixture per rule ----------------------------------------------------

RULE_FIXTURES = [
    (fx.AllocTrailRouting, "H001", "_note_trail",
     "alloc:list comprehension:stored"),
]


@pytest.mark.parametrize(
    "cls, rule_id, method, token",
    RULE_FIXTURES,
    ids=[rule_id for _cls, rule_id, _m, _t in RULE_FIXTURES],
)
def test_rule_fires_on_its_fixture(cls, rule_id, method, token):
    hazards = _own_hazards(cls)
    matching = [h for h in hazards if h.rule_id == rule_id]
    assert matching, f"{rule_id} did not fire on {cls.__name__}"
    (hazard,) = [h for h in matching if h.token == token]
    assert hazard.method == method
    assert hazard.heat >= HOT_THRESHOLD
    # Evidence chain: starts at a routing entry point, ends at the
    # flagged method.
    assert hazard.path[0] in HEAT_ENTRIES["routing"]
    assert hazard.path[-1] == method


def test_interprocedural_evidence_chain():
    (hazard,) = [
        h for h in _own_hazards(fx.AllocTrailRouting)
        if h.rule_id == "H001"
    ]
    assert hazard.path == ("route", "_note_trail")
    assert hazard.chain == "AllocTrailRouting.route -> _note_trail"


# -- lint_sources integration ------------------------------------------------


def test_lint_sources_perf_layer_finds_fixture_hazards():
    report = lint_sources([FIXTURE_PATH], layers=(PERF_LAYER,))
    findings = report.findings
    assert findings
    rule_ids = {f.rule_id for f in findings}
    assert "H001" in rule_ids
    # Perf findings advise; they never gate on severity alone.
    assert all(
        f.severity in (Severity.WARNING, Severity.INFO) for f in findings
    )
    # Every message carries an evidence chain and a heat annotation.
    sample = [f for f in findings if f.rule_id == "H001"][0]
    assert "route -> _note_trail" in sample.message
    assert "heat" in sample.message
    assert "rank" in sample.message


# -- CLI ---------------------------------------------------------------------


def test_sslint_perf_layer_on_sources(capsys):
    assert sslint_main([FIXTURE_PATH, "--layer", "perf"]) == 0
    out = capsys.readouterr().out
    assert "H001" in out
    assert "heat" in out


def test_list_rules_perf_layer(capsys):
    assert sslint_main(["--list-rules", "--layer", "perf"]) == 0
    out = capsys.readouterr().out
    assert "H001" in out
    for rule_id in ("H002", "H003", "H004"):
        assert rule_id not in out
    assert "C001" not in out


# -- SARIF fingerprints ------------------------------------------------------


def test_perf_fingerprints_ignore_message_and_line_drift():
    base = Finding(
        "H001", Severity.WARNING,
        "[registered:routing=x] H001 X.route: allocates [heat 0.5]",
        config_path="AllocTrailRouting:route:alloc:list:stored",
        location="tests/lint/fixtures/perf_hazards.py:42",
    )
    drifted = Finding(
        "H001", Severity.INFO,
        "different message entirely (rank moved, heat re-scaled)",
        config_path="AllocTrailRouting:route:alloc:list:stored",
        location="tests/lint/fixtures/perf_hazards.py:99",
    )
    other = Finding(
        "H001", Severity.WARNING,
        base.message,
        config_path="AllocTrailRouting:route:alloc:dict:stored",
        location=base.location,
    )
    assert fingerprint(base) == fingerprint(drifted)
    assert fingerprint(base) != fingerprint(other)
