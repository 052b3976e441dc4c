"""The shard-purity analyzer (S-rules) and its consumers.

Three layers of coverage:

* the interprocedural engine's verdicts on every *builtin* model (the
  derived classifications must match the old hand-maintained scope
  list: dragonfly/hyperx hop-adaptive routing unsafe with hop_count
  evidence chains, blast conditional on auto-warmup, everything else
  clean);
* one mutation fixture per S-rule (``fixtures/shard_hazards.py``),
  asserted rule-by-rule -- proof each rule actually fires;
* the consumers: ``validate_sharded_scope`` (verdict-driven, no name
  lists), the ``shard`` lint layer in ``sslint``, and SARIF
  fingerprint stability for S-findings.
"""

from __future__ import annotations

import copy
import json
import pathlib

import pytest

from repro import Settings, factory
from repro.configs import credit_accounting_config
from repro.lint import SHARD_LAYER, lint_settings
from repro.lint.findings import Finding, Severity
from repro.lint.sarif import fingerprint
from repro.lint.shard_rules import (
    CONDITIONAL,
    SHARD_SAFE,
    SHARD_UNSAFE,
    analyze_class,
    analyze_registered,
    classify_registered,
    model_bases,
)
from repro.partition.runtime import (
    PartitionRuntimeError,
    validate_sharded_scope,
)
from repro.tools.sslint import sslint_main

from tests.conftest import small_torus_config
from tests.lint.fixtures import shard_hazards  # noqa: F401 - registers models


def _write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


# -- builtin classifications -------------------------------------------------

#: What the analyzer must derive for every shipped model -- the same
#: judgments the old hard-coded scope list encoded, now with evidence.
BUILTIN_EXPECTATIONS = {
    ("application", "blast"): CONDITIONAL,
    ("application", "pulse"): SHARD_SAFE,
    ("application", "request_reply"): SHARD_UNSAFE,
    ("routing", "chain"): SHARD_SAFE,
    ("routing", "clos_adaptive"): SHARD_SAFE,
    ("routing", "clos_deterministic"): SHARD_SAFE,
    ("routing", "dragonfly_minimal"): SHARD_UNSAFE,
    ("routing", "dragonfly_ugal"): SHARD_UNSAFE,
    ("routing", "dragonfly_valiant"): SHARD_UNSAFE,
    ("routing", "hyperx_dimension_order"): SHARD_SAFE,
    ("routing", "hyperx_ugal"): SHARD_UNSAFE,
    ("routing", "hyperx_valiant"): SHARD_UNSAFE,
    ("routing", "torus_dimension_order"): SHARD_SAFE,
    ("routing", "torus_minimal_adaptive"): SHARD_SAFE,
    ("router", "input_output_queued"): SHARD_SAFE,
    ("router", "input_queued"): SHARD_SAFE,
    ("router", "output_queued"): SHARD_SAFE,
    ("interface", "standard"): SHARD_SAFE,
}


def test_builtin_classifications_match_expectations():
    table = classify_registered()
    actual = {
        (kind, name): verdict.classification
        for kind, verdicts in table.items()
        for name, verdict in verdicts.items()
    }
    for key, expected in BUILTIN_EXPECTATIONS.items():
        assert actual.get(key) == expected, (
            f"{key}: expected {expected}, got {actual.get(key)}"
        )
    # A new builtin model that is not shard-safe must be listed above.
    bases = model_bases()
    unlisted = [
        key for key, classification in actual.items()
        if key not in BUILTIN_EXPECTATIONS and classification != SHARD_SAFE
        and factory.lookup(bases[key[0]], key[1]).__module__.startswith(
            "repro.")
    ]
    assert not unlisted, f"unlisted builtin models not shard-safe: {unlisted}"


def test_hop_adaptive_routing_carries_evidence_chain():
    verdict = analyze_registered("routing", "dragonfly_ugal")
    assert verdict.classification == SHARD_UNSAFE
    (hazard,) = [h for h in verdict.hazards if h.rule_id == "S001"]
    # The read happens in a helper of the two-phase core the class
    # inherits; the chain must show the path from the framework entry
    # point to the offending method, and the location its file.
    assert hazard.path == ("route", "_hop_vc")
    assert "hop_count" in hazard.detail
    assert "two_phase.py" in hazard.location
    assert not hazard.conditions  # unconditional: fires for any config


def test_blast_is_conditional_on_auto_warmup():
    verdict = analyze_registered("application", "blast")
    assert verdict.classification == CONDITIONAL
    (hazard,) = verdict.hazards
    assert hazard.rule_id == "S002"
    rendered = hazard.render()
    assert "warmup_mode == 'auto'" in rendered
    assert "injection_rate" in rendered
    # Condition evaluation against concrete config blocks:
    assert not hazard.applicable({"warmup_mode": "fixed",
                                  "injection_rate": 0.2})
    assert hazard.applicable({"warmup_mode": "auto",
                              "injection_rate": 0.2})
    assert not hazard.applicable({"warmup_mode": "auto",
                                  "injection_rate": 0.0})
    # Missing keys fall back to the recorded source defaults.
    assert not hazard.applicable({})


# -- mutation fixtures: every S-rule proven to fire --------------------------


@pytest.mark.parametrize(
    "cls,kind,rule_id",
    [
        (shard_hazards.SneakyHopLocalVcRouting, "routing", "S001"),
        (shard_hazards.DeliveryGatedApplication, "application", "S002"),
        (shard_hazards.NetworkSnoopApplication, "application", "S003"),
        (shard_hazards.ModuleStateApplication, "application", "S004"),
        (shard_hazards.RngOnDeliveryApplication, "application", "S005"),
    ],
)
def test_mutation_fixture_trips_its_rule(cls, kind, rule_id):
    verdict = analyze_class(cls, kind)
    assert verdict.classification == SHARD_UNSAFE
    fired = {h.rule_id for h in verdict.hazards}
    assert fired == {rule_id}, (
        f"{cls.__name__}: expected exactly {rule_id}, got {sorted(fired)}"
    )
    for hazard in verdict.hazards:
        assert "shard_hazards.py" in hazard.location


def test_module_state_fixture_flags_counter_and_mutation():
    verdict = analyze_class(shard_hazards.ModuleStateApplication,
                            "application")
    details = [h.detail for h in verdict.hazards]
    assert any("next(_PACKET_SERIALS)" in d for d in details)
    assert any("_DELIVERY_LOG" in d for d in details)


# -- validate_sharded_scope: verdicts, not name lists ------------------------


def test_scope_rejects_custom_hop_count_routing():
    """The regression the blocklist could never catch.

    ``sneaky_hop_local_vc`` shares no name prefix with dragonfly or
    hyperx; the old ``startswith`` check would have admitted it and the
    sharded run would silently diverge.  The verdict-driven scope must
    reject it with the analyzer's hop_count evidence.
    """
    config = small_torus_config()
    config["network"]["routing"]["algorithm"] = "sneaky_hop_local_vc"
    with pytest.raises(PartitionRuntimeError, match="hop_count") as excinfo:
        validate_sharded_scope(config)
    message = str(excinfo.value)
    assert "S001" in message
    assert "SneakyHopLocalVcRouting.route" in message


def test_scope_admits_hyperx_dimension_order():
    """Scope widening: safe-by-analysis beats unsafe-by-name-prefix.

    hyperx_dimension_order never reads hop_count (it rotates VCs by
    packet.global_id, which shards replay identically), but the old
    blocklist rejected every ``hyperx*`` name.  The analyzer proves it
    clean, so the derived scope admits it.
    """
    config = small_torus_config()
    config["network"]["routing"]["algorithm"] = "hyperx_dimension_order"
    validate_sharded_scope(config)  # must not raise


@pytest.mark.parametrize(
    "app_type,rule_id",
    [
        ("delivery_gated_app", "S002"),
        ("network_snoop_app", "S003"),
        ("module_state_app", "S004"),
        ("rng_on_delivery_app", "S005"),
    ],
)
def test_scope_rejects_unsafe_fixture_applications(app_type, rule_id):
    config = small_torus_config()
    config["workload"]["applications"][0]["type"] = app_type
    with pytest.raises(PartitionRuntimeError, match=rule_id):
        validate_sharded_scope(config)


# -- lint-layer integration --------------------------------------------------


def test_shard_layer_flags_configured_unsafe_routing():
    settings = Settings.from_dict(credit_accounting_config())
    report = lint_settings(settings, layers=[SHARD_LAYER])
    errors = [f for f in report.findings if f.severity == Severity.ERROR]
    assert any(
        f.rule_id == "S001" and "hop_count" in f.message for f in errors
    )


def test_shard_layer_demotes_dormant_hazards_to_info():
    # blast with fixed warmup: the S002 hazard exists but its guard
    # (warmup_mode == 'auto') is provably false for this config.
    settings = Settings.from_dict(small_torus_config())
    report = lint_settings(settings, layers=[SHARD_LAYER])
    assert not report.has_errors()
    dormant = [f for f in report.findings if f.rule_id == "S002"]
    assert dormant and all(
        f.severity == Severity.INFO and "dormant here" in f.message
        for f in dormant
    )


def test_sslint_list_rules_shows_shard_layer(capsys):
    assert sslint_main(["--list-rules", "--layer", "shard"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("S001", "S002", "S003", "S004", "S005"):
        assert rule_id in out
    assert "C001" not in out


def test_sslint_partition_gates_on_shard_verdicts(tmp_path, capsys):
    config = credit_accounting_config()  # hyperx_ugal routing
    path = _write_config(tmp_path, config)
    assert sslint_main([path, "--partition", "4"]) == 1
    out = capsys.readouterr().out
    assert "S001" in out and "hop_count" in out


def test_sslint_shard_layer_over_sources(capsys):
    fixture = str(
        pathlib.Path(__file__).parent / "fixtures" / "shard_hazards.py"
    )
    assert sslint_main([fixture, "--layer", "shard"]) == 1
    out = capsys.readouterr().out
    for rule_id in ("S001", "S002", "S003", "S004", "S005"):
        assert rule_id in out


# -- SARIF fingerprints ------------------------------------------------------


def test_shard_fingerprints_pin_rule_class_and_chain():
    base = Finding(
        "S001", Severity.ERROR,
        "[network.routing.algorithm=dragonfly_ugal] S001 ...",
        config_path="DragonflyUgalRouting:route->_decide->_hop_vc",
        location="src/repro/routing/dragonfly.py:49",
    )
    drifted = Finding(
        "S001", Severity.ERROR,
        "a reworded message from a newer analyzer",
        config_path="DragonflyUgalRouting:route->_decide->_hop_vc",
        location="src/repro/routing/dragonfly.py:63",  # line drift
    )
    other_chain = Finding(
        "S001", Severity.ERROR,
        base.message,
        config_path="DragonflyUgalRouting:route->_hop_vc",
        location=base.location,
    )
    subject = "partition:test"
    assert fingerprint(base, subject) == fingerprint(drifted, subject)
    assert fingerprint(base, subject) != fingerprint(other_chain, subject)
    assert fingerprint(base, subject) != fingerprint(base, "other-subject")
