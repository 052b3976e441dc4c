"""Dataflow-layer rules E001, E003..E006: each catches its seeded mutation."""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import lint_sources

#: one file per rule: the minimal model fragment that must trip it.
MUTATIONS = {
    "E003": """
        class SameTickModel:
            def kick(self):
                self.simulator.call_at(self.simulator.tick, self.fire)
                self.schedule_at(self.fire, self.simulator.tick, epsilon=0)
        """,
    "E004": """
        class EpsilonAbuseModel:
            def kick(self):
                self.schedule(self.fire, 0, epsilon=1 << 20)
                self.simulator.call_at(10, self.fire, None, epsilon=-1)
        """,
    "E005": """
        class CreditPokingRouter:
            def refund(self, port, vc):
                tracker = self.output_credit_tracker(port)
                tracker._credits[vc] += 1
                tracker._capacity = [99, 99]
        """,
    "E006": """
        class ResurrectingModel:
            def retry(self, event):
                event.fired = False
                event.cancelled = False
        """,
}

#: correct counterparts: same shape, contract respected.
CLEAN_SOURCE = """
    from repro.net.phases import EPS_STEP

    class WellBehavedModel:
        def arm(self):
            self.schedule(self.fire, 5, epsilon=EPS_STEP)
            # Every scheduling owns its Event: retaining a handle, on
            # self or in a container, is fine.
            self.pending = self.simulator.call_at(10, self.fire)
            self.handles = {7: self.schedule_at(self.fire, 7)}
            self.handles[9] = self.schedule_at(self.fire, 9)
            self.extra = [self.pending]
            self.extra.append(self.schedule(self.fire, 5))
            self.schedule_at(self.fire, self.simulator.tick + 1)
            # delay-0 schedule() auto-bumps epsilon: allowed.
            self.schedule(self.fire, 0)

        def fire(self, event):
            # Clearing an engine-owned field on *self* is the engine's
            # own business (this is how Simulator itself is written).
            self.fired = True

        def refund(self, port, vc):
            self.output_credit_tracker(port).give(vc)

        def stop(self, event):
            event.cancel()
    """


def _write(tmp_path, name, body):
    path = tmp_path / f"{name}.py"
    path.write_text(textwrap.dedent(body))
    return str(path)


@pytest.mark.mutation
@pytest.mark.parametrize("rule_id", sorted(MUTATIONS))
def test_each_rule_catches_its_mutation(tmp_path, rule_id):
    path = _write(tmp_path, rule_id.lower(), MUTATIONS[rule_id])
    report = lint_sources([path])
    hits = [f for f in report.findings if f.rule_id == rule_id]
    assert hits, f"{rule_id} did not fire:\n{report.render_text()}"
    for finding in hits:
        assert finding.location.startswith(path)


def test_mutation_files_trip_only_their_rule(tmp_path):
    for rule_id, body in MUTATIONS.items():
        path = _write(tmp_path, f"only_{rule_id.lower()}", body)
        report = lint_sources([path])
        ids = {f.rule_id for f in report.findings if f.rule_id.startswith("E")}
        assert ids == {rule_id}, (
            f"{rule_id} fixture tripped {sorted(ids)}:\n{report.render_text()}"
        )


def test_severities_match_the_contract(tmp_path):
    paths = [
        _write(tmp_path, rule_id.lower(), body)
        for rule_id, body in MUTATIONS.items()
    ]
    report = lint_sources(paths)
    by_rule = {}
    for finding in report.findings:
        by_rule.setdefault(finding.rule_id, set()).add(finding.severity.value)
    # The same-tick pattern has legitimate uses: a warning.  API bypass
    # and range overflow always break: errors.
    assert by_rule["E003"] == {"warning"}
    assert by_rule["E004"] == {"error"}
    assert by_rule["E005"] == {"error"}
    assert by_rule["E006"] == {"error"}


def test_clean_model_has_no_dataflow_findings(tmp_path):
    path = _write(tmp_path, "clean", CLEAN_SOURCE)
    report = lint_sources([path])
    e_findings = [f for f in report.findings if f.rule_id.startswith("E")]
    assert not e_findings, report.render_text()


def test_parse_error_reported_once_not_per_rule(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    also_broken = tmp_path / "also_broken.py"
    also_broken.write_text("class (\n")
    fine = _write(tmp_path, "fine", CLEAN_SOURCE)
    report = lint_sources([str(broken), fine, str(also_broken)])
    # One E001 per broken file, and nothing else about it.
    assert [(f.rule_id, f.location) for f in report.findings] == [
        ("E001", str(broken)),
        ("E001", str(also_broken)),
    ]
    for finding in report.findings:
        assert "could not parse" in finding.message


def test_engine_package_owns_the_event_fields(tmp_path):
    """E006 polices *model* code: the engine's own writes to
    ``event.fired`` are the lifecycle the rule protects."""
    import pathlib

    engine = tmp_path / "repro" / "core"
    engine.mkdir(parents=True)
    model = tmp_path / "repro" / "router"
    model.mkdir()
    for directory in (engine, model):
        (directory / "loop.py").write_text(
            textwrap.dedent(MUTATIONS["E006"])
        )
    report = lint_sources([str(engine / "loop.py"), str(model / "loop.py")])
    hits = [f for f in report.findings if f.rule_id == "E006"]
    assert hits and all(
        f.location.startswith(str(model)) for f in hits
    ), report.render_text()
    # The shipped engine: clean at the parent commit only by omission.
    simulator = (
        pathlib.Path(__file__).resolve().parents[2]
        / "src" / "repro" / "core" / "simulator.py"
    )
    assert "event.fired = " in simulator.read_text()
    assert not lint_sources([str(simulator)]).has_errors()


def test_rule_catalog_includes_dataflow_layer():
    from repro.lint import DATAFLOW_LAYER, all_rule_ids, rule_catalog

    ids = all_rule_ids(DATAFLOW_LAYER)
    assert ids == ["E001", "E003", "E004", "E005", "E006"]
    catalog = rule_catalog()
    for rule_id in ids:
        assert catalog[rule_id]["layer"] == DATAFLOW_LAYER
        assert catalog[rule_id]["description"]


def test_shipped_sanitize_and_router_sources_are_dataflow_clean():
    """The packaged model code must obey its own contracts (errors only;
    E003 warnings have legitimate uses)."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    sources = [
        str(path)
        for sub in ("router", "net", "workload", "sanitize")
        for path in sorted((root / sub).glob("*.py"))
    ]
    report = lint_sources(sources)
    e_errors = [
        f
        for f in report.findings
        if f.rule_id.startswith("E") and f.severity.value == "error"
    ]
    assert not e_errors, "\n".join(f.render() for f in e_errors)
