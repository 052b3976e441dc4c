"""SARIF export and fingerprint baselines (sslint --format sarif)."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.lint import Finding, LintReport, Severity, lint_sources
from repro.lint.sarif import (
    FINGERPRINT_KEY,
    apply_baseline,
    fingerprint,
    load_baseline,
    to_sarif,
    write_baseline,
)
from repro.tools.sslint import sslint_main

HAZARD = """
    import random

    class SlightlyBroken:
        def pick(self):
            return random.random()

        def arm(self):
            self.simulator.call_at(self.simulator.tick, self.fire)
    """


@pytest.fixture
def hazard_path(tmp_path):
    path = tmp_path / "hazard.py"
    path.write_text(textwrap.dedent(HAZARD))
    return str(path)


def test_sarif_log_shape(hazard_path):
    report = lint_sources([hazard_path], subject="sources")
    log = to_sarif([report])
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "sslint"
    results = run["results"]
    assert results, "hazard file should produce findings"
    rule_ids = {r["ruleId"] for r in results}
    assert "D001" in rule_ids and "E003" in rule_ids
    declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert rule_ids <= declared
    for result in results:
        assert result["level"] in ("error", "warning", "note")
        assert result["message"]["text"]
        assert FINGERPRINT_KEY in result["partialFingerprints"]
        physical = result["locations"][0]["physicalLocation"]
        assert physical["artifactLocation"]["uri"] == hazard_path
        assert physical["region"]["startLine"] >= 1


def test_sarif_config_findings_use_logical_locations():
    report = LintReport(subject="myconfig.json")
    report.add(
        Finding(
            "C003",
            Severity.ERROR,
            "bad value",
            config_path="network.num_vcs",
        )
    )
    log = to_sarif([report])
    location = log["runs"][0]["results"][0]["locations"][0]
    logical = location["logicalLocations"][0]
    assert logical["fullyQualifiedName"] == "network.num_vcs"


def test_fingerprint_v2_partition_findings_are_message_insensitive():
    # Graph/partition findings without a source location quote
    # network-derived quantities (cut counts, lookahead values) that
    # drift as the planner evolves; the v2 fingerprint pins only
    # rule + subject + config path.
    a = Finding("P003", Severity.ERROR, "lookahead 5 exceeds 4",
                config_path="partition.lookahead")
    b = Finding("P003", Severity.ERROR, "lookahead 7 exceeds 6",
                config_path="partition.lookahead")
    c = Finding("P003", Severity.ERROR, "lookahead 5 exceeds 4",
                config_path="partition.shards")
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint(c)
    assert fingerprint(a, "cfg-1") != fingerprint(a, "cfg-2")
    # Config-layer findings still pin the message (it carries the
    # offending value).
    d = Finding("C003", Severity.ERROR, "num_vcs is 3",
                config_path="network.num_vcs")
    e = Finding("C003", Severity.ERROR, "num_vcs is 5",
                config_path="network.num_vcs")
    assert fingerprint(d) != fingerprint(e)
    # Partition AST findings carry a source location and keep the
    # message like every other source-layer rule.
    f = Finding("P006", Severity.WARNING, "touches self.peer.x",
                location="model.py:10")
    g = Finding("P006", Severity.WARNING, "touches self.peer.y",
                location="model.py:10")
    assert fingerprint(f) != fingerprint(g)


def test_fingerprint_key_is_versioned():
    assert FINGERPRINT_KEY == "sslintFingerprint/v2"


def test_fingerprint_is_line_insensitive_but_content_sensitive():
    a = Finding("E001", Severity.WARNING, "handle retained",
                location="model.py:10")
    b = Finding("E001", Severity.WARNING, "handle retained",
                location="model.py:99")
    c = Finding("E001", Severity.WARNING, "handle retained",
                location="other.py:10")
    d = Finding("E003", Severity.WARNING, "handle retained",
                location="model.py:10")
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint(c)
    assert fingerprint(a) != fingerprint(d)
    assert fingerprint(a, "subject-1") != fingerprint(a, "subject-2")


def test_baseline_roundtrip_suppresses_known_findings(tmp_path, hazard_path):
    report = lint_sources([hazard_path], subject="sources")
    baseline_path = str(tmp_path / "baseline.json")
    count = write_baseline(baseline_path, [report])
    assert count == len({
        fingerprint(f, report.subject) for f in report.findings
    })
    baseline = load_baseline(baseline_path)
    filtered = apply_baseline([report], baseline)
    assert all(not r.findings for r in filtered)
    # Original report untouched.
    assert report.findings


def test_baseline_lets_new_findings_through(tmp_path, hazard_path):
    report = lint_sources([hazard_path], subject="sources")
    baseline_path = str(tmp_path / "baseline.json")
    write_baseline(baseline_path, [report])
    # A new hazard appears in a different file.
    new_path = tmp_path / "fresh.py"
    new_path.write_text("import time\nNOW = time.time()\n")
    combined = lint_sources([hazard_path, str(new_path)], subject="sources")
    filtered = apply_baseline([combined], load_baseline(baseline_path))
    remaining = [f for r in filtered for f in r.findings]
    assert remaining
    assert all(f.location.startswith(str(new_path)) for f in remaining)


def test_load_baseline_rejects_non_baseline_json(tmp_path):
    path = tmp_path / "notabaseline.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError):
        load_baseline(str(path))


def test_sslint_cli_sarif_and_baseline_flow(tmp_path, hazard_path, capsys):
    # SARIF output parses and carries the findings.
    assert sslint_main([hazard_path, "--format", "sarif"]) == 0
    log = json.loads(capsys.readouterr().out)
    assert log["runs"][0]["results"]

    # Record the baseline, then gate against it: nothing new -> clean.
    baseline = str(tmp_path / "baseline.json")
    assert sslint_main([hazard_path, "--write-baseline", baseline]) == 0
    capsys.readouterr()
    assert sslint_main([hazard_path, "--baseline", baseline,
                        "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["errors"] == 0
    assert all(not r["findings"] for r in payload["reports"])


def test_sslint_cli_baseline_gates_on_new_errors_only(tmp_path, capsys):
    # An error-severity finding (E006) in the baseline must not fail
    # the gate; the same finding without a baseline must.
    path = tmp_path / "badmodel.py"
    path.write_text(textwrap.dedent("""
        def resurrect(event):
            event.fired = False
        """))
    assert sslint_main([str(path)]) == 1
    capsys.readouterr()
    baseline = str(tmp_path / "baseline.json")
    sslint_main([str(path), "--write-baseline", baseline])
    capsys.readouterr()
    assert sslint_main([str(path), "--baseline", baseline]) == 0
    capsys.readouterr()
