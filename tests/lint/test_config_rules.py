"""Config-layer rules C001..C009 on seeded defects and clean configs."""

from __future__ import annotations

import copy

import pytest

from repro import Settings, factory, models
from repro.configs import (
    blast_pulse_config,
    credit_accounting_config,
    flow_control_config,
    latent_congestion_config,
)
from repro.core.rng import RandomManager
from repro.core.simulator import Simulator
from repro.lint import lint_config_dict
from repro.net.network import Network
from repro.routing.base import RoutingAlgorithm, RoutingError
from tests.integration.test_delivery_invariants import CONFIGS


def _rule_ids(report):
    return sorted({f.rule_id for f in report.findings})


def _lint(config, **kwargs):
    kwargs.setdefault("graph", False)
    return lint_config_dict(config, **kwargs)


@pytest.fixture()
def torus_config():
    return copy.deepcopy(blast_pulse_config())


def test_unknown_key_c001_with_did_you_mean(torus_config):
    torus_config["network"]["chanel_latency"] = 4
    report = _lint(torus_config)
    (finding,) = [f for f in report.findings if f.rule_id == "C001"]
    assert finding.severity.value == "warning"
    assert finding.config_path == "network.chanel_latency"
    assert "channel_latency" in (finding.suggestion or "")


def test_wrong_type_c002(torus_config):
    torus_config["network"]["num_vcs"] = "two"
    report = _lint(torus_config)
    assert any(
        f.rule_id == "C002" and f.config_path == "network.num_vcs"
        for f in report.errors
    )


def test_bad_value_c003(torus_config):
    torus_config["network"]["router"]["input_queue_depth"] = 0
    report = _lint(torus_config)
    assert any(
        f.rule_id == "C003"
        and f.config_path == "network.router.input_queue_depth"
        for f in report.errors
    )


def test_bad_choice_c003(torus_config):
    torus_config["network"]["router"]["crossbar_scheduler"] = {
        "flow_control": "packet_bufer"
    }
    report = _lint(torus_config)
    (finding,) = [f for f in report.findings if f.rule_id == "C003"]
    assert "packet_buffer" in (finding.suggestion or "")


def test_missing_required_c004(torus_config):
    del torus_config["network"]["routing"]
    report = _lint(torus_config)
    assert any(
        f.rule_id == "C004" and f.config_path == "network.routing"
        for f in report.errors
    )


def test_missing_root_block_c004():
    report = _lint({"network": blast_pulse_config()["network"]})
    assert any(
        f.rule_id == "C004" and f.config_path == "workload"
        for f in report.errors
    )


def test_unknown_model_c005_with_did_you_mean(torus_config):
    torus_config["network"]["routing"]["algorithm"] = "torus_dimension_ordr"
    report = _lint(torus_config)
    (finding,) = [f for f in report.findings if f.rule_id == "C005"]
    assert finding.severity.value == "error"
    assert "torus_dimension_order" in (finding.suggestion or "")


def test_registered_custom_model_opens_block(torus_config):
    # A registered user model makes its block schema-open: custom keys
    # must not produce C001 noise.
    torus_config["network"]["interface"]["type"] = "standard"
    torus_config["network"]["interface"]["ejection_buffer_size"] = 64
    report = _lint(torus_config)
    assert _rule_ids(report) == []


def test_routing_topology_mismatch_c006(torus_config):
    torus_config["network"]["routing"]["algorithm"] = "hyperx_dimension_order"
    report = _lint(torus_config)
    assert any(f.rule_id == "C006" for f in report.errors)


def test_vc_discipline_c007(torus_config):
    torus_config["network"]["num_vcs"] = 3
    report = _lint(torus_config)
    (finding,) = [f for f in report.findings if f.rule_id == "C007"]
    assert finding.config_path == "network.num_vcs"
    assert "even" in finding.message


def _packaged_routing():
    models.load_all()
    return [
        name for name in factory.names(RoutingAlgorithm)
        if factory.lookup(RoutingAlgorithm, name).__module__.startswith(
            "repro.routing.")
    ]


def _network_config(algorithm: str) -> dict:
    """A delivery-invariants network block on ``algorithm``'s topology."""
    topology = factory.lookup(RoutingAlgorithm, algorithm).topology
    cell = next(cell for cell in CONFIGS.values()
                if cell["network"]["topology"] == topology)
    config = copy.deepcopy(cell)
    config["network"]["routing"] = {"algorithm": algorithm}
    return config


def _construction_error(config: dict):
    try:
        factory.create(Network, config["network"]["topology"], Simulator(),
                       "network", None, Settings(config["network"], "network"),
                       RandomManager(1))
    except RoutingError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("algorithm", _packaged_routing())
def test_c007_fires_exactly_when_construction_raises(algorithm):
    """Each algorithm states its VC requirement once
    (``RoutingAlgorithm.vc_count_error``): below, at and just above its
    smallest usable VC count, C007 reports what the constructor raises,
    word for word, and nothing where construction succeeds."""
    config = _network_config(algorithm)
    routing_class = factory.lookup(RoutingAlgorithm, algorithm)
    bound = next(
        n for n in range(1, 17)
        if routing_class.vc_count_error(n, Settings(config["network"])) is None
    )
    for num_vcs in sorted({max(bound - 1, 1), bound, bound + 1}):
        config["network"]["num_vcs"] = num_vcs
        raised = _construction_error(config)
        findings = [
            f.message for f in _lint(config).findings
            if f.rule_id == "C007" and f.config_path == "network.num_vcs"
        ]
        assert findings == ([] if raised is None else [raised]), num_vcs
        if num_vcs == bound:
            assert raised is None
        elif num_vcs < bound:
            assert raised is not None


def test_injection_vcs_out_of_range_c007(torus_config):
    torus_config["network"]["interface"]["injection_vcs"] = [0, 7]
    report = _lint(torus_config)
    assert any(
        f.rule_id == "C007"
        and f.config_path == "network.interface.injection_vcs"
        and f.severity.value == "error"
        for f in report.findings
    )


def test_injection_vcs_outside_class_warns_c007(torus_config):
    # VC 1 exists but is dateline class 1: packets must inject in class 0.
    torus_config["network"]["interface"]["injection_vcs"] = [1]
    report = _lint(torus_config)
    assert any(
        f.rule_id == "C007" and f.severity.value == "warning"
        for f in report.findings
    )


def test_credit_buffer_depth_c008(torus_config):
    torus_config["network"]["router"]["crossbar_scheduler"] = {
        "flow_control": "packet_buffer"
    }
    torus_config["network"]["router"]["input_queue_depth"] = 8
    torus_config["network"]["interface"]["max_packet_size"] = 16
    report = _lint(torus_config)
    (finding,) = [f for f in report.findings if f.rule_id == "C008"]
    assert finding.severity.value == "error"
    assert finding.config_path == "network.router.input_queue_depth"


def test_c008_checks_output_queue_for_ioq():
    config = copy.deepcopy(credit_accounting_config())
    config["network"]["router"]["crossbar_scheduler"] = {
        "flow_control": "packet_buffer"
    }
    config["network"]["router"]["output_queue_depth"] = 2
    config["network"].setdefault("interface", {})["max_packet_size"] = 8
    report = _lint(config)
    (finding,) = [f for f in report.findings if f.rule_id == "C008"]
    assert finding.config_path == "network.router.output_queue_depth"


def test_ejection_bdp_c009(torus_config):
    torus_config["network"]["terminal_channel_latency"] = 100
    torus_config["network"]["interface"]["ejection_buffer_size"] = 8
    report = _lint(torus_config)
    (finding,) = [f for f in report.findings if f.rule_id == "C009"]
    assert finding.severity.value == "warning"


@pytest.mark.parametrize(
    "builder",
    [
        blast_pulse_config,
        credit_accounting_config,
        flow_control_config,
        latent_congestion_config,
    ],
    ids=lambda b: b.__name__,
)
def test_shipped_configs_lint_clean(builder):
    report = lint_config_dict(builder(), max_pairs=128)
    assert report.findings == [], report.render_text()
