"""The sslint CLI and its integration points (supersim, sssweep)."""

from __future__ import annotations

import copy
import importlib
import json
import pathlib
import sys

import pytest

from repro import factory
from repro.__main__ import main as supersim_main
from repro.configs import blast_pulse_config
from repro.factory.registry import ObjectFactory
from repro.routing.base import RoutingAlgorithm
from repro.tools.sslint import sslint_main

from .fixtures import naive_routing

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def test_clean_config_exits_zero(tmp_path, capsys):
    path = _write_config(tmp_path, blast_pulse_config())
    assert sslint_main([path]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_pairs_below_one_is_a_usage_error(tmp_path, capsys, value):
    path = _write_config(tmp_path, blast_pulse_config())
    with pytest.raises(SystemExit) as exit_info:
        sslint_main([path, "--max-pairs", value])
    assert exit_info.value.code == 2
    assert "--max-pairs" in capsys.readouterr().err


def test_error_finding_exits_one(tmp_path, capsys):
    config = copy.deepcopy(blast_pulse_config())
    config["network"]["router"]["crossbar_scheduler"] = {
        "flow_control": "packet_buffer"
    }
    config["network"]["router"]["input_queue_depth"] = 8
    config["network"]["interface"]["max_packet_size"] = 16
    path = _write_config(tmp_path, config)
    assert sslint_main([path]) == 1
    assert "C008" in capsys.readouterr().out


def test_json_format_is_machine_readable(tmp_path, capsys):
    config = copy.deepcopy(blast_pulse_config())
    config["network"]["chanel_latency"] = 4  # C001 typo, warning only
    path = _write_config(tmp_path, config)
    assert sslint_main([path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["errors"] == 0
    (report,) = payload["reports"]
    assert report["counts"]["warning"] == 1
    (finding,) = report["findings"]
    assert finding["rule_id"] == "C001"
    assert "channel_latency" in finding["suggestion"]


def test_overrides_apply_to_config_targets(tmp_path, capsys):
    path = _write_config(tmp_path, blast_pulse_config())
    assert sslint_main([path, "network.num_vcs=uint=3"]) == 1
    assert "C007" in capsys.readouterr().out


def test_import_registers_user_models(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(FIXTURES))
    config = copy.deepcopy(blast_pulse_config())
    config["network"]["routing"]["algorithm"] = "naive_torus_minimal"
    path = _write_config(tmp_path, config)
    assert sslint_main([path, "--import", "naive_routing"]) == 1
    assert "G004" in capsys.readouterr().out


def test_reimported_fixture_keeps_its_first_class(monkeypatch):
    """``--import naive_routing`` imports the fixture a second time,
    under its bare module name.  The first registration stands in
    either order, so what a lookup returns does not depend on which
    test imported the fixture first."""
    monkeypatch.syspath_prepend(str(FIXTURES))
    bare = importlib.import_module("naive_routing")
    classes = (naive_routing.NaiveTorusMinimalRouting,
               bare.NaiveTorusMinimalRouting)
    assert classes[0] is not classes[1]
    assert factory.lookup(RoutingAlgorithm, "naive_torus_minimal") is classes[0]
    for order in (classes, classes[::-1]):
        registry = ObjectFactory()
        for cls in order:
            registry.register(RoutingAlgorithm, "naive_torus_minimal")(cls)
            assert registry.lookup(
                RoutingAlgorithm, "naive_torus_minimal") is order[0]


def test_builtin_configs_lint_clean(capsys):
    assert sslint_main(["--builtin", "all", "--max-pairs", "64"]) == 0
    assert "builtin:" in capsys.readouterr().out


def test_list_rules_covers_all_layers(capsys):
    assert sslint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("C001", "C008", "G004", "D001", "D005"):
        assert rule_id in out


def test_list_rules_perf_layer():
    """``perf`` names no layer: asking for it is a usage error."""
    for argv in (["--list-rules", "--layer", "perf"],
                 ["src/repro", "--layer", "perf"]):
        with pytest.raises(SystemExit) as excinfo:
            sslint_main(argv)
        assert excinfo.value.code == 2


def test_py_targets_use_determinism_layer(tmp_path, capsys):
    source = tmp_path / "model.py"
    source.write_text("import random\nrandom.random()\n")
    assert sslint_main([str(source)]) == 0  # warnings only
    assert "D001" in capsys.readouterr().out


def test_nothing_to_lint_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        sslint_main([])
    assert excinfo.value.code == 2


def test_supersim_lint_only(tmp_path, capsys):
    path = _write_config(tmp_path, blast_pulse_config())
    assert supersim_main([path, "--lint-only"]) == 0
    assert supersim_main([path, "network.num_vcs=uint=3", "--lint-only"]) == 1
    err = capsys.readouterr().err
    assert "C007" in err


def test_supersim_lint_blocks_simulation(tmp_path, capsys):
    config = copy.deepcopy(blast_pulse_config())
    config["network"]["num_vcs"] = 3
    path = _write_config(tmp_path, config)
    assert supersim_main([path, "--lint", "--quiet"]) == 1
    assert "not simulating" in capsys.readouterr().err


def test_sssweep_lint_gate_blocks_fanout(tmp_path, capsys):
    from repro.tools.cli import sssweep_main

    path = _write_config(tmp_path, blast_pulse_config())
    rc = sssweep_main(
        [path, "--var", "V=network.num_vcs=uint=3,5", "--workers", "1",
         "--quiet"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "C007" in err and "not launching" in err


# -- partition planning / verification (docs/PARTITIONING.md) ----------------


def test_sslint_partition_plans_and_summarizes(tmp_path, capsys):
    path = _write_config(tmp_path, blast_pulse_config())
    assert sslint_main([path, "--partition", "4"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out
    assert "partition: k=4" in out
    assert "lookahead" in out


def test_sslint_partition_all_builtins(capsys):
    # Every builtin config plans cleanly, credit_accounting's hyperx_ugal
    # routing included; blast's auto-warmup S002 hazard is dormant.
    assert sslint_main(
        ["--builtin", "all", "--partition", "4", "--max-pairs", "64"]
    ) == 0
    out = capsys.readouterr().out
    assert out.count("partition: k=4") == 4
    assert out.count("0 error(s)") == 4
    assert out.count("dormant here: S002") == 4


def test_sslint_manifest_out_is_deterministic(tmp_path, capsys):
    path = _write_config(tmp_path, blast_pulse_config())
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert sslint_main(
        [path, "--partition", "4", "--manifest-out", str(first)]
    ) == 0
    assert sslint_main(
        [path, "--partition", "4", "--manifest-out", str(second)]
    ) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_sslint_manifest_out_directory_for_many(tmp_path, capsys):
    out_dir = tmp_path / "plans"
    assert sslint_main(
        ["--builtin", "all", "--partition", "2", "--max-pairs", "64",
         "--manifest-out", str(out_dir)]
    ) == 0
    capsys.readouterr()
    written = sorted(p.name for p in out_dir.iterdir())
    assert len(written) == 4
    assert all(name.endswith(".partition.json") for name in written)


def test_sslint_manifest_roundtrip_verifies_clean(tmp_path, capsys):
    path = _write_config(tmp_path, blast_pulse_config())
    manifest = tmp_path / "plan.json"
    assert sslint_main(
        [path, "--partition", "2", "--manifest-out", str(manifest)]
    ) == 0
    capsys.readouterr()
    assert sslint_main([path, "--manifest", str(manifest)]) == 0


def test_sslint_manifest_catches_tampering(tmp_path, capsys):
    path = _write_config(tmp_path, blast_pulse_config())
    manifest_path = tmp_path / "plan.json"
    assert sslint_main(
        [path, "--partition", "2", "--manifest-out", str(manifest_path)]
    ) == 0
    capsys.readouterr()
    manifest = json.loads(manifest_path.read_text())
    manifest["lookahead"]["global"] = 10_000
    manifest_path.write_text(json.dumps(manifest))
    assert sslint_main([path, "--manifest", str(manifest_path)]) == 1
    assert "P003" in capsys.readouterr().out


def test_sslint_partition_and_manifest_are_exclusive(tmp_path):
    path = _write_config(tmp_path, blast_pulse_config())
    with pytest.raises(SystemExit) as excinfo:
        sslint_main([path, "--partition", "2", "--manifest", "x.json"])
    assert excinfo.value.code == 2


def test_sslint_list_rules_layer_filter(capsys):
    assert sslint_main(["--list-rules", "--layer", "partition"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("P001", "P008"):
        assert rule_id in out
    assert "C001" not in out and "G001" not in out


def test_sslint_layer_restricts_source_lint(tmp_path, capsys):
    source = tmp_path / "model.py"
    source.write_text(
        "import random\n"
        "class M:\n"
        "    def pick(self):\n"
        "        return random.random() + self.peer.bias\n"
    )
    assert sslint_main([str(source), "--layer", "partition"]) == 0
    out = capsys.readouterr().out
    assert "P006" in out and "D001" not in out


def test_supersim_partition_plan_emits_manifest(tmp_path, capsys):
    path = _write_config(tmp_path, blast_pulse_config())
    assert supersim_main([path, "--partition-plan", "4"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["k"] == 4
    assert manifest["lookahead"]["global"] >= 1
    assert len(manifest["shards"]) == 4


def test_supersim_partition_plan_fails_on_bad_k(tmp_path, capsys):
    path = _write_config(tmp_path, blast_pulse_config())
    assert supersim_main([path, "--partition-plan", "0"]) == 1
    err = capsys.readouterr().err
    assert "P005" in err and "no manifest emitted" in err


def test_sssweep_partition_gate_passes_and_reports(tmp_path, capsys):
    from repro.tools.cli import sssweep_main

    path = _write_config(tmp_path, blast_pulse_config())
    rc = sssweep_main(
        [path, "--var", "S=simulator.seed=uint=1,2", "--workers", "1",
         "--max-time", "200", "--partition", "4"]
    )
    assert rc == 0
    assert "partition gate: k=4" in capsys.readouterr().err


def test_sssweep_partition_gate_blocks_fanout(tmp_path, capsys):
    from repro.tools.cli import sssweep_main

    path = _write_config(tmp_path, blast_pulse_config())
    rc = sssweep_main(
        [path, "--var", "S=simulator.seed=uint=1,2", "--workers", "1",
         "--partition", "0", "--quiet"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "P005" in err and "not launching" in err
