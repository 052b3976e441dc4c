"""The hot-path perf analyzer (H-rules) and its consumers.

Four layers of coverage:

* the heat-propagation pass: per-event entry points seed the weights,
  helpers inherit them interprocedurally, construction-time code never
  enters the audit;
* one mutation fixture per H-rule (``fixtures/perf_hazards.py``),
  asserted rule-by-rule -- proof each rule actually fires, with the
  evidence chain naming the entry point;
* profile correlation: a real cProfile dump re-ranks findings and
  demotes statically-hot-but-measured-cold ones to INFO;
* the consumers: the ``perf`` layer in ``sslint`` (``--layer perf``,
  ``--profile``, ``--list-rules``) and SARIF fingerprint stability for
  H-findings.
"""

from __future__ import annotations

import cProfile
import pathlib

import pytest

from repro.lint import PERF_LAYER, lint_sources
from repro.lint.callgraph import ClassGraph, propagate_heat
from repro.lint.findings import Finding, Severity
from repro.lint.perf_rules import (
    HEAT_ENTRIES,
    HOT_THRESHOLD,
    analyze_class_perf,
    load_profile_times,
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
    assert heat["_land"].path == ("_step", "_land_core_arrivals", "_land")
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
    (fx.AllocTrailRouting, "H001", "route",
     "alloc:list comprehension:stored"),
    (fx.ClosureSortRouting, "H002", "route", "lambda"),
    (fx.ChainHappyRouting, "H003", "route", "chain:self.router.num_vcs"),
    (fx.ChattyTraceRouting, "H004", "_note_hop", "fstring"),
    (fx.NotefulRouting, "H005", "route", "new:HopNote"),
    (fx.FlakyProbeRouting, "H006", "route", "try-in-loop"),
    (fx.TypeSniffRouting, "H007", "route", "isinstance:dict"),
    (fx.TableThrashRouting, "H008", "route",
     "expr:self.bias_table[input_vc]"),
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
        h for h in _own_hazards(fx.ChattyTraceRouting)
        if h.rule_id == "H004"
    ]
    assert hazard.path == ("route", "_note_hop")
    assert hazard.chain == "ChattyTraceRouting.route -> _note_hop"


def test_global_declaration_flagged_outside_loops():
    tokens = {
        h.token for h in _own_hazards(fx.FlakyProbeRouting)
        if h.rule_id == "H006"
    }
    assert tokens == {"try-in-loop", "global"}


def test_error_path_allocations_are_exempt():
    # Stock torus routing raises RoutingError with f-strings and builds
    # candidate lists for raise paths; none of that may surface as
    # H005 (exception constructors) on the fixture subclasses.
    from repro.routing.torus import TorusDimensionOrderRouting

    hazards = analyze_class_perf(TorusDimensionOrderRouting, "routing")
    assert not [
        h for h in hazards
        if h.rule_id == "H005" and "Error" in h.token
    ]


# -- lint_sources integration ------------------------------------------------


def test_lint_sources_perf_layer_finds_fixture_hazards():
    report = lint_sources([FIXTURE_PATH], layers=(PERF_LAYER,))
    findings = report.findings
    assert findings
    rule_ids = {f.rule_id for f in findings}
    assert {"H001", "H002", "H003", "H004",
            "H005", "H006", "H007", "H008"} <= rule_ids
    # Perf findings advise; they never gate on severity alone.
    assert all(
        f.severity in (Severity.WARNING, Severity.INFO) for f in findings
    )
    # Every message carries an evidence chain and a heat annotation.
    sample = [f for f in findings if f.rule_id == "H004"][0]
    assert "route -> _note_hop" in sample.message
    assert "heat" in sample.message
    assert "rank" in sample.message


# -- profile correlation -----------------------------------------------------


def _fixture_profile(tmp_path) -> str:
    """A real cProfile dump in which only route() is measurably hot.

    The profiled function is compiled with the fixture file's own
    filename, so ``load_profile_times``'s (basename, funcname) keys
    match the analyzer's hazards exactly as a real run's would.
    """
    source = (
        "def route(reps):\n"
        "    total = 0\n"
        "    for i in range(reps):\n"
        "        total += i\n"
        "    return total\n"
    )
    namespace: dict = {}
    exec(compile(source, FIXTURE_PATH, "exec"), namespace)
    profile = cProfile.Profile()
    profile.enable()
    namespace["route"](200_000)
    profile.disable()
    path = tmp_path / "fixture.pstats"
    profile.dump_stats(str(path))
    return str(path)


def test_load_profile_times_keys_by_basename(tmp_path):
    times, total = load_profile_times(_fixture_profile(tmp_path))
    assert total > 0.0
    assert ("perf_hazards.py", "route") in times


def test_profile_correlation_demotes_measured_cold_findings(tmp_path):
    pstats_path = _fixture_profile(tmp_path)
    report = lint_sources(
        [FIXTURE_PATH], layers=(PERF_LAYER,), profile_path=pstats_path
    )
    findings = report.findings
    hot = [
        f for f in findings
        if f.config_path.split(":")[1].split("->")[-1] == "route"
    ]
    cold = [
        f for f in findings
        if f.config_path.split(":")[1].split("->")[-1] != "route"
    ]
    assert hot and cold
    # route() dominates the profile: its findings keep WARNING and
    # carry the measured share.
    assert all(f.severity == Severity.WARNING for f in hot)
    assert all("measured" in f.message for f in hot)
    # _note_hop (and every other non-route method) never appears in
    # the profile: statically hot, measured cold, demoted to INFO.
    assert all(f.severity == Severity.INFO for f in cold)
    assert all("measured cold here" in f.message for f in cold)


def test_without_profile_nothing_is_demoted():
    report = lint_sources([FIXTURE_PATH], layers=(PERF_LAYER,))
    findings = report.findings
    assert findings
    assert all(f.severity == Severity.WARNING for f in findings)
    assert not any("measured" in f.message for f in findings)


# -- CLI ---------------------------------------------------------------------


def test_sslint_perf_layer_on_sources(capsys):
    assert sslint_main([FIXTURE_PATH, "--layer", "perf"]) == 0
    out = capsys.readouterr().out
    assert "H001" in out
    assert "heat" in out


def test_sslint_profile_flag(tmp_path, capsys):
    pstats_path = _fixture_profile(tmp_path)
    assert sslint_main(
        [FIXTURE_PATH, "--layer", "perf", "--profile", pstats_path]
    ) == 0
    out = capsys.readouterr().out
    assert "measured cold here" in out


def test_sslint_profile_flag_requires_existing_file(tmp_path, capsys):
    with pytest.raises(SystemExit):
        sslint_main(
            [FIXTURE_PATH, "--layer", "perf",
             "--profile", str(tmp_path / "missing.pstats")]
        )


def test_list_rules_perf_layer(capsys):
    assert sslint_main(["--list-rules", "--layer", "perf"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("H001", "H002", "H003", "H004",
                    "H005", "H006", "H007", "H008"):
        assert rule_id in out
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
