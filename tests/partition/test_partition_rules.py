"""The P-rules: every mutation of a sound manifest must be caught.

The manifest rules (P001..P005) are exercised by planning a known-good
manifest for a builtin config, tampering with one aspect, and asserting
that exactly the right rule fires.  The shard-isolation source rules
(P006, P008, and D003's module-state half, which absorbed the old
per-file module-state rule) are exercised mutation-style: small source
snippets, one hazard each, checked for the expected rule id.
"""

from __future__ import annotations

import copy
import textwrap

import pytest

from repro.config.settings import Settings
from repro.configs import blast_pulse_config
from repro.lint import lint_partition, lint_sources

# -- manifest rules (P001..P005) ---------------------------------------------


@pytest.fixture(scope="module")
def settings():
    return Settings.from_dict(blast_pulse_config())


@pytest.fixture(scope="module")
def clean_manifest(settings):
    report, manifest = lint_partition(settings, k=2)
    assert not report.has_errors()
    assert manifest is not None
    return manifest


def _verify(settings, manifest, **kwargs):
    report, _ = lint_partition(settings, manifest=manifest, **kwargs)
    return report


def _error_ids(report):
    return sorted({f.rule_id for f in report.errors})


def test_planned_manifest_verifies_clean(settings, clean_manifest):
    report = _verify(settings, clean_manifest)
    assert not report.has_errors()


def test_p001_zero_latency_cut(settings, clean_manifest):
    manifest = copy.deepcopy(clean_manifest)
    manifest["cut_channels"][0]["latency"] = 0
    assert "P001" in _error_ids(_verify(settings, manifest))


def test_p001_latency_disagrees_with_network(settings, clean_manifest):
    manifest = copy.deepcopy(clean_manifest)
    manifest["cut_channels"][0]["latency"] += 1
    report = _verify(settings, manifest)
    assert "P001" in _error_ids(report)
    assert "post-override" in "".join(f.message for f in report.errors)


def test_p002_unknown_cut_channel(settings, clean_manifest):
    manifest = copy.deepcopy(clean_manifest)
    manifest["cut_channels"][0]["name"] = "no_such_channel"
    assert "P002" in _error_ids(_verify(settings, manifest))


def test_p002_wrong_cut_kind(settings, clean_manifest):
    manifest = copy.deepcopy(clean_manifest)
    entry = manifest["cut_channels"][0]
    entry["kind"] = "credit" if entry["kind"] == "flit" else "flit"
    assert "P002" in _error_ids(_verify(settings, manifest))


def test_p002_undeclared_crossing(settings, clean_manifest):
    manifest = copy.deepcopy(clean_manifest)
    del manifest["cut_channels"][0]
    report = _verify(settings, manifest)
    assert "P002" in _error_ids(report)
    assert "not declared" in "".join(f.message for f in report.errors)


def test_p002_declared_cut_does_not_cross(settings, clean_manifest):
    # Merge every component into shard 0 but keep shard 1's (now empty)
    # entry and the stale cut declarations.
    manifest = copy.deepcopy(clean_manifest)
    moved = manifest["shards"][1]["components"]
    manifest["shards"][0]["components"] += moved
    manifest["shards"][1]["components"] = []
    report = _verify(settings, manifest)
    assert "P002" in _error_ids(report)
    assert any("do not actually cross" in f.message for f in report.errors)


def test_p003_zero_lookahead(settings, clean_manifest):
    manifest = copy.deepcopy(clean_manifest)
    manifest["lookahead"]["global"] = 0
    assert "P003" in _error_ids(_verify(settings, manifest))


def test_p003_overstated_lookahead(settings, clean_manifest):
    manifest = copy.deepcopy(clean_manifest)
    manifest["lookahead"]["global"] = 10_000
    report = _verify(settings, manifest)
    assert "P003" in _error_ids(report)
    assert "exceeds" in "".join(f.message for f in report.errors)


def test_p003_overstated_per_shard_lookahead(settings, clean_manifest):
    manifest = copy.deepcopy(clean_manifest)
    manifest["lookahead"]["per_shard"]["0"] = 10_000
    assert "P003" in _error_ids(_verify(settings, manifest))


def test_p003_missing_per_shard_lookahead(settings, clean_manifest):
    manifest = copy.deepcopy(clean_manifest)
    del manifest["lookahead"]["per_shard"]["1"]
    assert "P003" in _error_ids(_verify(settings, manifest))


def test_p003_threshold_is_configurable(settings, clean_manifest):
    # The planned lookahead is sound at threshold 1 but a runtime
    # needing a wider window can demand more.
    huge = clean_manifest["lookahead"]["global"] + 1
    report = _verify(
        settings, clean_manifest, lookahead_threshold=huge
    )
    assert "P003" in _error_ids(report)


def test_p004_imbalance_and_empty_shard_warn(settings, clean_manifest):
    manifest = copy.deepcopy(clean_manifest)
    moved = manifest["shards"][1]["components"]
    manifest["shards"][0]["components"] += moved
    manifest["shards"][0]["weight"] += manifest["shards"][1]["weight"]
    manifest["shards"][1]["components"] = []
    manifest["shards"][1]["weight"] = 0
    report = _verify(settings, manifest)
    p004 = [f for f in report.warnings if f.rule_id == "P004"]
    messages = "".join(f.message for f in p004)
    assert "empty" in messages
    assert "heaviest" in messages


def test_p004_weight_disagreement_warns(settings, clean_manifest):
    manifest = copy.deepcopy(clean_manifest)
    manifest["shards"][0]["weight"] += 3
    report = _verify(settings, manifest)
    assert any(f.rule_id == "P004" for f in report.warnings)


def test_p005_missing_component(settings, clean_manifest):
    manifest = copy.deepcopy(clean_manifest)
    del manifest["shards"][0]["components"][0]
    report = _verify(settings, manifest)
    assert "P005" in _error_ids(report)
    assert any("no shard" in f.message for f in report.errors)


def test_p005_duplicated_component(settings, clean_manifest):
    manifest = copy.deepcopy(clean_manifest)
    name = manifest["shards"][0]["components"][0]
    manifest["shards"][1]["components"].append(name)
    report = _verify(settings, manifest)
    assert "P005" in _error_ids(report)
    assert any("multiple shards" in f.message for f in report.errors)


def test_p005_unknown_component(settings, clean_manifest):
    manifest = copy.deepcopy(clean_manifest)
    manifest["shards"][0]["components"].append("phantom_router")
    report = _verify(settings, manifest)
    assert "P005" in _error_ids(report)
    assert any("unknown" in f.message for f in report.errors)


def test_p005_structural_errors_gate_semantic_rules(settings,
                                                    clean_manifest):
    manifest = copy.deepcopy(clean_manifest)
    manifest["version"] = 99
    manifest["cut_channels"][0]["latency"] = 0  # would be P001
    report = _verify(settings, manifest)
    assert _error_ids(report) == ["P005"]


def test_p005_unplannable_k(settings):
    report, manifest = lint_partition(settings, k=0)
    assert "P005" in _error_ids(report)
    assert manifest is None


def test_no_partition_request_runs_no_p_rules(settings):
    from repro.lint import GRAPH_LAYER, PARTITION_LAYER, LintContext, run_rules

    ctx = LintContext(settings=settings)
    report = run_rules(ctx, [GRAPH_LAYER, PARTITION_LAYER])
    assert not any(f.rule_id.startswith("P") for f in report.findings)


# -- shard-isolation source rules (P006, P008, D003) -------------------------

HAZARDS = {
    "P006_sink_reach": """
        class Router:
            def route(self, flit, port):
                depth = self._flit_out[port].sink.queue_depth(0)
                return depth
        """,
    "P006_peer_attribute": """
        class Monitor:
            def sample(self):
                return self.peer.injected_flits
        """,
    "P006_registry_reach": """
        class Oracle:
            def occupancy(self, j):
                return self.network.routers[j].input_occupancy(0, 0)
        """,
    "D003_global_statement": """
        COUNT = 0

        class Counter:
            def bump(self):
                global COUNT
                COUNT += 1
        """,
    "D003_container_mutation": """
        SEEN = []

        class Tracker:
            def track(self, flit):
                SEEN.append(flit.id)
        """,
    "D003_subscript_write": """
        TABLE = {}

        class Cache:
            def put(self, key, value):
                TABLE[key] = value
        """,
    "D003_annotated_container": """
        from typing import List

        SEEN: List[int] = []

        class Tracker:
            def track(self, flit):
                SEEN.append(flit.id)
        """,
    "D003_comprehension_container": """
        TABLE = {k: 0 for k in range(4)}

        class Cache:
            def put(self, key, value):
                TABLE[key] = value
        """,
    "P008_positional_handler": """
        class Injector:
            def kick(self, peer):
                self.simulator.call_at(10, peer.receive)
        """,
    "P008_keyword_handler": """
        class Injector:
            def kick(self, peer):
                self.simulator.call_at(10, handler=peer.receive)
        """,
    "P008_schedule_helper": """
        class Injector:
            def kick(self):
                self.schedule(self.sink_interface.wake, delay=1)
        """,
}

CLEAN = {
    "self_handler_is_fine": """
        class Router:
            def arm(self):
                self.schedule(self._deliver, delay=1)
                self.simulator.call_at(10, self._fire)
        """,
    "construction_wiring_is_fine": """
        class Network:
            def __init__(self):
                self.routers[0].attach(self.routers[1].port(0))

            def _build(self):
                for j in range(4):
                    self.routers[j].finalize_ports()
        """,
    "local_mutable_state_is_fine": """
        class Tracker:
            def track(self, flit):
                self.seen.append(flit.id)
                local = {}
                local[flit.id] = 1
        """,
    "module_constant_read_is_fine": """
        LIMITS = {"depth": 4}

        class Router:
            def limit(self):
                return LIMITS["depth"]
        """,
}


def _scan_snippet(tmp_path, name, source):
    path = tmp_path / f"{name}.py"
    path.write_text(textwrap.dedent(source))
    report = lint_sources([str(path)])  # the default source layers
    return {f.rule_id for f in report.findings}


@pytest.mark.parametrize("name", sorted(HAZARDS))
def test_hazard_snippets_fire_expected_rule(tmp_path, name):
    expected = name.split("_")[0]
    assert expected in _scan_snippet(tmp_path, name, HAZARDS[name])


@pytest.mark.parametrize("name", sorted(CLEAN))
def test_clean_snippets_stay_silent(tmp_path, name):
    assert _scan_snippet(tmp_path, name, CLEAN[name]) == set()


def test_global_in_a_method_is_one_finding_on_its_line(tmp_path):
    path = tmp_path / "counter.py"
    path.write_text(textwrap.dedent(HAZARDS["D003_global_statement"]))
    report = lint_sources([str(path)])
    assert [(f.rule_id, f.location) for f in report.findings] == [
        ("D003", f"{path}:6"),
    ]


def test_one_module_state_finding_per_line(tmp_path):
    path = tmp_path / "shuffle.py"
    path.write_text(textwrap.dedent("""
        QUEUE = []
        TABLE = {}

        class Mover:
            def move(self, key):
                TABLE[key] = QUEUE.pop()
        """))
    report = lint_sources([str(path)])
    assert [f.location for f in report.findings] == [f"{path}:7"]


def test_isolation_findings_are_warnings_with_locations(tmp_path):
    path = tmp_path / "hazard.py"
    path.write_text(textwrap.dedent(HAZARDS["P006_sink_reach"]))
    report = lint_sources([str(path)], layers=["partition"])
    assert report.findings and not report.has_errors()
    for finding in report.findings:
        assert finding.location.startswith(str(path))
        assert ":" in finding.location
