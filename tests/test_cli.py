"""The command line entry point (paper Listing 1)."""

import json

import pytest

from repro.__main__ import main
from tests.conftest import small_torus_config


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "myconfig.json"
    config = small_torus_config()
    config["workload"]["applications"][0]["generate_duration"] = 500
    path.write_text(json.dumps(config))
    return path


def test_basic_run(config_file, capsys):
    code = main([str(config_file)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["drained"] is True
    assert summary["latency"]["count"] > 0


def test_listing1_style_overrides(config_file, capsys):
    code = main([
        str(config_file),
        "network.concentration=uint=2",
        "workload.applications.0.injection_rate=float=0.05",
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["offered_load"] == pytest.approx(0.05, abs=0.03)


def test_quiet_mode(config_file, capsys):
    main([str(config_file), "--quiet"])
    assert capsys.readouterr().out == ""


def test_output_artifacts(tmp_path, config_file):
    log_path = tmp_path / "messages.jsonl"
    summary_path = tmp_path / "summary.json"
    code = main([
        str(config_file),
        f'output.message_log=string={log_path}',
        f'output.summary=string={summary_path}',
        "--quiet",
    ])
    assert code == 0
    assert summary_path.exists()
    summary = json.loads(summary_path.read_text())
    assert summary["message_log"]["records"] > 0
    assert log_path.exists()
    first = json.loads(log_path.read_text().splitlines()[0])
    assert "src" in first and "dst" in first


def test_max_time_flag_truncates(config_file):
    code = main([str(config_file), "--max-time=100", "--quiet"])
    # 100 ticks is inside warmup: nothing drained -> exit code 1.
    assert code == 1


def test_partition_refuses_profile(config_file, capsys):
    """The sharded path runs no profiler; it used to skip it silently."""
    with pytest.raises(SystemExit) as excinfo:
        main([str(config_file), "--partition", "2", "--profile"])
    assert excinfo.value.code == 2
    assert "--partition cannot be combined with --profile" \
        in capsys.readouterr().err


def test_partition_refuses_sweep(config_file, capsys):
    """A sweep runs every point single-process; it used to drop
    ``--partition`` silently."""
    with pytest.raises(SystemExit) as excinfo:
        main([
            str(config_file), "--partition", "2",
            "--sweep", "R=workload.applications.0.injection_rate=float=0.1",
        ])
    assert excinfo.value.code == 2
    assert "--partition cannot be combined with --sweep" \
        in capsys.readouterr().err


def test_missing_config_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        main([str(tmp_path / "nope.json")])
