"""Acceptance: everything the repo ships lints clean.

Zero error-severity findings over every built-in benchmark config
(config + graph layers), every Table I full-scale config (config
layer), every example script and every packaged source file (the
source layers); and no hot-path hazard (H-rules) in ``src/repro`` that
``lint-perf-baseline.json`` does not record.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import configs
from repro.lint import lint_config_dict, lint_sources

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_BUILDERS = [
    configs.blast_pulse_config,
    configs.credit_accounting_config,
    configs.flow_control_config,
    configs.latent_congestion_config,
]


@pytest.mark.parametrize("builder", _BUILDERS, ids=lambda b: b.__name__)
def test_benchmark_config_has_zero_errors(builder):
    report = lint_config_dict(builder(), max_pairs=256)
    assert not report.has_errors(), report.render_text()


@pytest.mark.parametrize("column", sorted(configs.table1()))
def test_table1_config_has_zero_errors(column):
    report = lint_config_dict(configs.table1()[column], graph=False)
    assert not report.has_errors(), report.render_text()


def test_example_scripts_have_zero_errors():
    examples = sorted((REPO_ROOT / "examples").glob("*.py"))
    assert examples, "examples/ directory is missing"
    report = lint_sources([str(path) for path in examples])
    assert not report.has_errors(), report.render_text()


def test_packaged_sources_have_zero_errors():
    sources = sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
    assert len(sources) > 50, "src/repro is missing"
    report = lint_sources([str(path) for path in sources])
    assert not report.has_errors(), report.render_text()


def test_packaged_sources_have_no_new_perf_hazards():
    """Run in a fresh interpreter: the perf layer audits every registered
    model with a method in ``src/repro``, and other tests register
    hazard fixtures.  Accept a new hazard deliberately by refreshing the
    baseline with ``sslint src/repro --layer perf --write-baseline
    lint-perf-baseline.json``.
    """
    run = subprocess.run(
        [sys.executable, "-m", "repro.tools.sslint", "src/repro",
         "--layer", "perf", "--baseline", "lint-perf-baseline.json",
         "--format", "json"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert run.returncode == 0, run.stderr
    new = [
        finding["message"]
        for report in json.loads(run.stdout)["reports"]
        for finding in report["findings"]
    ]
    assert not new, "\n".join(new)
