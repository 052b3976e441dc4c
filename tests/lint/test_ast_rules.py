"""Determinism-layer rules D001..D005."""

from __future__ import annotations

import textwrap

import pytest

from repro.configs import blast_pulse_config
from repro.lint import lint_sources, lint_sweep
from repro.tools.sssweep import Sweep

HAZARD_SOURCE = textwrap.dedent(
    """
    import random
    import time as walltime
    import numpy as np
    from numpy.random import default_rng
    from repro.tools.sssweep import Sweep

    HITS = 0

    def pick(n):
        global HITS
        HITS += 1
        return random.randint(0, n) + int(walltime.time())

    def legacy():
        return np.random.rand()

    def fine(rng):
        # Seeded construction and generator draws are allowed.
        gen = default_rng(1234)
        return gen.integers(0, 10) + rng.random()

    def build(config):
        return Sweep(config, collect=lambda results: results.summary())
    """
)


@pytest.fixture()
def hazard_path(tmp_path):
    path = tmp_path / "hazard.py"
    path.write_text(HAZARD_SOURCE)
    return str(path)


def _ids(report):
    return sorted({f.rule_id for f in report.findings})


def test_hazard_file_trips_d001_to_d004(hazard_path):
    report = lint_sources([hazard_path])
    assert _ids(report) == ["D001", "D002", "D003", "D004"]
    assert not report.has_errors()  # AST findings are warnings
    # Locations carry file:line.
    for finding in report.findings:
        assert finding.location.startswith(hazard_path)


def test_d001_flags_global_rng_not_seeded_constructors(hazard_path):
    report = lint_sources([hazard_path])
    messages = [f.message for f in report.findings if f.rule_id == "D001"]
    assert any("random.randint" in m for m in messages)
    assert any("numpy.random.rand" in m for m in messages)
    assert not any("default_rng" in m for m in messages)


def test_clean_file_has_no_findings(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(
        textwrap.dedent(
            """
            def traffic(rng, terminals):
                return int(rng.integers(0, terminals))
            """
        )
    )
    report = lint_sources([str(path)])
    assert report.findings == []


def test_unparseable_file_is_reported_not_raised(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    # One E001 per broken file, whichever source layers were asked for:
    # not one per layer, not one per rule, and never silence.
    for layers in (None, ["determinism"], ["dataflow"], ["partition"],
                   ["determinism", "partition"]):
        report = lint_sources([str(path)], layers=layers)
        (finding,) = report.findings
        assert finding.rule_id == "E001"
        assert finding.location == str(path)
        assert "could not parse" in finding.message


def test_each_target_is_parsed_once_per_run(hazard_path, monkeypatch):
    """Every source layer plus the shard layer share one parse of each
    target -- including the files that define registered model classes,
    which the call-graph core reads too."""
    import ast
    import collections
    import pathlib

    from tests.lint.fixtures import shard_hazards  # noqa: F401

    fixtures = pathlib.Path(__file__).parent / "fixtures"
    paths = [hazard_path, str(fixtures / "shard_hazards.py")]
    parsed = collections.Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed[str(filename)] += 1
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    layers = ["determinism", "dataflow", "partition", "shard"]
    for _run in range(2):
        parsed.clear()
        report = lint_sources(paths, layers=layers)
        assert {path: parsed[path] for path in paths} == dict.fromkeys(
            paths, 1
        )
    # The shard layer did run over those trees.
    assert {"S"} <= {f.rule_id[0] for f in report.findings}


def test_lint_sources_reads_layers_once():
    """A generator of layers runs every layer it names, like a list."""
    import pathlib

    from tests.lint.fixtures import naive_routing, shard_hazards  # noqa: F401

    fixtures = pathlib.Path(__file__).parent / "fixtures"
    paths = [str(fixtures / "shard_hazards.py"),
             str(fixtures / "naive_routing.py")]
    layers = ["shard", "determinism"]
    listed = lint_sources(paths, layers=layers)
    generated = lint_sources(paths, layers=iter(layers))
    assert len(listed.findings) > 1
    assert generated.to_json() == listed.to_json()


def test_lint_sources_rejects_an_unknown_layer(hazard_path):
    with pytest.raises(ValueError, match="'bogus'.*known: config"):
        lint_sources([hazard_path], layers=["determinism", "bogus"])
    with pytest.raises(ValueError, match="'perf'"):
        lint_sources([hazard_path], layers=["perf"])


def test_unpicklable_collect_fails_d005():
    sweep = Sweep(
        blast_pulse_config(),
        name="bad",
        collect=lambda results: results.summary(),
    )
    sweep.add_variable(
        "Rate", "R", [0.1], lambda v: f"workload.applications.0.injection_rate=float={v}"
    )
    report = lint_sweep(sweep)
    errors = [f for f in report.errors if f.rule_id == "D005"]
    assert errors, report.render_text()
    assert "collect" in errors[0].message


def test_picklable_sweep_passes_and_catches_bad_point_configs():
    sweep = Sweep(blast_pulse_config(), name="ok")
    sweep.add_variable(
        "Vcs", "V", [2, 3], lambda v: f"network.num_vcs=uint={v}"
    )
    report = lint_sweep(sweep)
    # The resolved V3 point violates the dateline VC discipline and must
    # be caught before fan-out, tagged with its sweep point id.
    assert any(
        f.rule_id == "C007" and "[V3]" in f.message for f in report.errors
    )
    assert not any(f.rule_id == "D005" for f in report.findings)
