"""Shard-layer pins: the S-rule output, digest for digest.

The S rules read one call-graph reach per class (``reachable`` in
:mod:`repro.lint.callgraph`): which methods a framework entry point
reaches, by which path and under which guard conditions.  These pins
hold everything the reach decides, so a change to the traversal that
moves a path or a condition fails here even when the verdicts happen to
stay the same:

* every packaged and fixture model's ``analyze_class`` verdict: its
  classification and its sorted ``(rule_id, path, conditions)``
  hazards;
* the fingerprints of ``sslint src/repro tests/lint/fixtures --layer
  shard --format json``, run in a fresh interpreter so no model another
  test registers joins the targets;
* ``lint_partition`` on the ``sharded_k2_torus`` bench config: the
  planned manifest and the findings, messages without their source
  locations.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

from repro import Settings, factory
from repro.configs import flow_control_config
from repro.lint import lint_partition
from repro.lint.callgraph import model_bases, render_conds
from repro.lint.findings import Finding, Severity
from repro.lint.sarif import fingerprint
from repro.lint.shard_rules import analyze_class

from .fixtures import (  # noqa: F401 - register the fixture models
    hyperx_misrouting,
    mutable_state_routing,
    naive_routing,
    shard_hazards,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

FIXTURE_MODULES = tuple(
    module.__name__ for module in (
        hyperx_misrouting, mutable_state_routing, naive_routing,
        shard_hazards,
    )
)


def _digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def verdict_rows():
    """One row per packaged or fixture model, sorted."""
    rows = []
    for kind, base in model_bases().items():
        for name in factory.names(base):
            cls = factory.lookup(base, name)
            module = cls.__module__
            if not (module.startswith("repro.") or module in FIXTURE_MODULES):
                continue
            verdict = analyze_class(cls, kind)
            hazards = sorted(
                (h.rule_id, h.path, render_conds(h.conditions))
                for h in verdict.hazards
            )
            rows.append((kind, name, cls.__qualname__,
                         verdict.classification, hazards))
    return sorted(rows)


def test_registered_model_verdicts_are_pinned():
    rows = verdict_rows()
    assert len(rows) == 27
    assert sum(len(row[4]) for row in rows) == 7
    assert _digest(rows) == VERDICTS_DIGEST


def test_sslint_shard_layer_fingerprints_are_pinned():
    imports = [arg for module in FIXTURE_MODULES
               for arg in ("--import", module)]
    run = subprocess.run(
        [sys.executable, "-m", "repro.tools.sslint", "src/repro",
         "tests/lint/fixtures", "--layer", "shard", "--format", "json",
         *imports],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert run.returncode == 1, run.stderr  # the fixtures carry S errors
    rows = sorted(
        (fingerprint(Finding(f["rule_id"], Severity(f["severity"]),
                             f["message"], config_path=f.get("config_path"),
                             location=f.get("location")),
                     report["subject"]),
         f["severity"])
        for report in json.loads(run.stdout)["reports"]
        for f in report["findings"]
    )
    assert len(rows) == 7
    assert _digest(rows) == SSLINT_DIGEST


def test_lint_partition_on_the_sharded_bench_config_is_pinned():
    settings = Settings.from_dict(flow_control_config(
        message_size=4, injection_rate=0.3, warmup=100, window=300,
        seed=1,
    ))
    report, manifest = lint_partition(settings, k=2, subject="bench")
    findings = [
        (f.rule_id, f.severity.value, f.config_path,
         f.message.replace(f" ({f.location})", ""))
        for f in report.findings
    ]
    assert [f[:3] for f in findings] == [
        ("S002", "info", "BlastApplication:on_init->_warmup_check"),
    ]
    assert _digest(findings) == PARTITION_FINDINGS_DIGEST
    assert _digest(json.dumps(manifest, sort_keys=True)) == MANIFEST_DIGEST


#: The verdict and sslint digests were re-recorded when routers moved
#: the hop count to the head and S001 went: the five hop-VC routing
#: classes turned shard-safe, and their S001 hazards, the S001 fixture
#: and its findings left.  Every other row and fingerprint is equal.
VERDICTS_DIGEST = (
    "28ca1bc4d9b73ee8adbbd339afc9c12b600ccce6430b8435981e950a8fd744e2"
)
SSLINT_DIGEST = (
    "7c7eb7ff839c7109b8aa5e6d1db0375326766e1fa2d633195ae506dff4ed9f27"
)
PARTITION_FINDINGS_DIGEST = (
    "4ffe4bbe826c37e5d2535844862c3ac768850ad4c6c0a10b12eb3a7e03eaa5c4"
)
MANIFEST_DIGEST = (
    "762d138ee0230d1b59ab37657046a6fbf726bbedf36a886a5dfba3b562cfe531"
)
