"""Graph-layer rules G001..G006: wiring and channel dependency cycles."""

from __future__ import annotations

import copy

import pytest

import repro.net.message as message_mod
import repro.net.packet as packet_mod
from repro.config.settings import Settings
from repro.configs import blast_pulse_config
from repro.lint import lint_config_dict, lint_partition, lint_settings
from repro.lint.graph import GraphAnalysis, _find_cycle
from repro.lint.rules import GRAPH_LAYER, LintContext, run_rules
from tests.integration.test_delivery_invariants import CONFIGS

from .fixtures import naive_routing  # noqa: F401 - registers the algorithm


def _graph_report(config):
    ctx = LintContext(settings=Settings.from_dict(config))
    return run_rules(ctx, [GRAPH_LAYER])


@pytest.fixture()
def torus_config():
    return copy.deepcopy(blast_pulse_config())


def test_construction_failure_g001(torus_config):
    # Passes no config-layer gate here: odd VCs break the dateline
    # scheme inside the RoutingAlgorithm constructor.
    torus_config["network"]["num_vcs"] = 3
    report = _graph_report(torus_config)
    (finding,) = [f for f in report.findings if f.rule_id == "G001"]
    assert finding.severity.value == "error"
    assert "RoutingError" in finding.message


def test_unconnected_ports_g002_are_info():
    config = {
        "network": {
            "topology": "parking_lot",
            "length": 4,
            "concentration": 1,
            "num_vcs": 1,
            "router": {"architecture": "input_queued"},
            "routing": {"algorithm": "chain"},
        },
        "workload": {
            "applications": [
                {
                    "type": "blast",
                    "injection_rate": 0.1,
                    "traffic": {"type": "uniform_random"},
                    "message_size": {"type": "constant", "size": 1},
                }
            ]
        },
    }
    report = lint_config_dict(config)
    findings = [f for f in report.findings if f.rule_id == "G002"]
    # The two chain-end routers each have one unused ring port.
    assert len(findings) == 2
    assert all(f.severity.value == "info" for f in findings)
    assert not report.has_errors()


def test_deadlock_prone_routing_g004(torus_config):
    torus_config["network"]["routing"]["algorithm"] = "naive_torus_minimal"
    report = lint_config_dict(torus_config)
    (finding,) = [f for f in report.findings if f.rule_id == "G004"]
    assert finding.severity.value == "error"
    assert "deadlock" in finding.message
    assert "vc" in finding.message  # names the cycle's channels


def test_adaptive_cycle_g005_is_info(torus_config):
    torus_config["network"]["num_vcs"] = 4
    torus_config["network"]["routing"]["algorithm"] = "torus_minimal_adaptive"
    report = lint_config_dict(torus_config)
    assert [f.rule_id for f in report.findings] == ["G005"]
    assert report.findings[0].severity.value == "info"


def test_dateline_dor_cdg_is_acyclic(torus_config):
    analysis = GraphAnalysis(Settings.from_dict(torus_config))
    assert analysis.constructed
    assert analysis.pairs_traced > 0
    assert analysis.full_cycle is None
    assert analysis.escape_cycle is None


def test_trace_restores_global_id_counters(torus_config):
    before_packet = next(packet_mod._global_packet_ids)
    before_message = next(message_mod._global_message_ids)
    GraphAnalysis(Settings.from_dict(torus_config))
    # The trace created hundreds of probe packets; the counters the
    # simulator's VC rotation depends on must be exactly as before.
    assert next(packet_mod._global_packet_ids) == before_packet + 1
    assert next(message_mod._global_message_ids) == before_message + 1


def test_find_cycle_detects_sccs_and_self_loops():
    a, b, c = ("a", 0), ("b", 0), ("c", 0)
    assert _find_cycle({a: {b}, b: {c}}) is None
    cycle = _find_cycle({a: {b}, b: {c}, c: {a}})
    assert cycle is not None and set(cycle) == {a, b, c}
    assert _find_cycle({a: {a}}) == [a]


def test_pair_sampling_is_bounded(torus_config):
    analysis = GraphAnalysis(Settings.from_dict(torus_config), max_pairs=10)
    assert analysis.pairs_traced == 10


@pytest.mark.parametrize("max_pairs", [0, -3])
def test_max_pairs_below_one_is_rejected(max_pairs):
    """Tracing no pair would drop this config's G005 (and any G004):
    refuse rather than lint it clean."""
    config = copy.deepcopy(CONFIGS["torus_3d_adaptive"])
    settings = Settings.from_dict(config)
    with pytest.raises(ValueError, match="max_pairs"):
        lint_config_dict(config, max_pairs=max_pairs)
    with pytest.raises(ValueError, match="max_pairs"):
        lint_settings(settings, max_pairs=max_pairs)
    with pytest.raises(ValueError, match="max_pairs"):
        lint_partition(settings, k=2, max_pairs=max_pairs)
