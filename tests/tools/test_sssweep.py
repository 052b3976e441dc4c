"""sssweep: sweep generation and execution (paper §V, Listing 2)."""

import pytest

from repro.tools.sssweep import Sweep
from tests.conftest import small_torus_config


def quick_collect(results):
    return {
        "drained": results.drained,
        "accepted": results.accepted_load(),
        "mean_latency": results.latency().mean(),
    }


def tiny_base():
    config = small_torus_config()
    config["workload"]["applications"][0]["warmup_duration"] = 100
    config["workload"]["applications"][0]["generate_duration"] = 400
    return config


class TestJobGeneration:
    def test_cross_product_and_ids(self):
        sweep = Sweep(tiny_base(), name="demo")
        sweep.add_variable("Latency", "CL", [1, 2, 4],
                           lambda v: f"network.channel_latency=uint={v}")
        sweep.add_variable("Rate", "R", [0.1, 0.2],
                           lambda v: f"workload.applications.0.injection_rate=float={v}")
        jobs = sweep.generate_jobs()
        assert len(jobs) == 6
        assert sweep.num_jobs == 6
        assert jobs[0].job_id == "CL1_R0.1"
        assert jobs[-1].job_id == "CL4_R0.2"

    def test_listing2_style_declaration(self):
        """The paper's Listing 2, almost verbatim."""
        latencies = [1, 2, 4, 8, 16, 32, 64]

        def set_latency(latency):
            return "network.channel_latency=uint=" + str(latency)

        sweep = Sweep(tiny_base())
        sweep.add_variable("ChannelLatency", "CL", latencies, set_latency)
        assert sweep.num_jobs == 7
        jobs = sweep.generate_jobs()
        assert jobs[3].overrides == ["network.channel_latency=uint=8"]

    def test_override_fn_may_return_list(self):
        sweep = Sweep(tiny_base())
        sweep.add_variable(
            "VCs", "V", [2, 4],
            lambda v: [f"network.num_vcs=uint={v}"],
        )
        jobs = sweep.generate_jobs()
        assert jobs[0].overrides == ["network.num_vcs=uint=2"]

    def test_duplicate_short_name_rejected(self):
        sweep = Sweep(tiny_base())
        sweep.add_variable("A", "X", [1], lambda v: "a=uint=1")
        with pytest.raises(ValueError):
            sweep.add_variable("B", "X", [1], lambda v: "b=uint=1")

    def test_empty_values_rejected(self):
        sweep = Sweep(tiny_base())
        with pytest.raises(ValueError):
            sweep.add_variable("A", "A", [], lambda v: "")

    def test_settings_for_applies_overrides(self):
        sweep = Sweep(tiny_base())
        sweep.add_variable("Latency", "CL", [9],
                           lambda v: f"network.channel_latency=uint={v}")
        job = sweep.generate_jobs()[0]
        settings = sweep.settings_for(job)
        assert settings.child("network").get("channel_latency") == 9


class TestExecution:
    def test_run_collects_results(self):
        sweep = Sweep(tiny_base(), name="exec", collect=quick_collect,
                      max_time=100_000)
        sweep.add_variable(
            "Rate", "R", [0.05, 0.15],
            lambda v: f"workload.applications.0.injection_rate=float={v}")
        sweep.run()
        rows = sweep.to_rows()
        assert len(rows) == 2
        for row in rows:
            assert row["drained"]
            assert row["accepted"] == pytest.approx(row["Rate"], abs=0.05)

    def test_observer_called_per_job(self):
        seen = []
        sweep = Sweep(tiny_base(), collect=quick_collect, max_time=100_000)
        sweep.add_variable(
            "Rate", "R", [0.05],
            lambda v: f"workload.applications.0.injection_rate=float={v}")
        sweep.run(observer=lambda job: seen.append(job.job_id))
        assert seen == ["R0.05"]

    def test_failed_job_records_error(self):
        sweep = Sweep(tiny_base(), collect=quick_collect)
        sweep.add_variable(
            "Arch", "A", ["no_such_architecture"],
            lambda v: f"network.router.architecture=string={v}")
        sweep.run()
        rows = sweep.to_rows()
        assert "error" in rows[0]

    def test_csv_and_html_outputs(self, tmp_path):
        sweep = Sweep(tiny_base(), name="outputs", collect=quick_collect,
                      max_time=100_000)
        sweep.add_variable(
            "Rate", "R", [0.05],
            lambda v: f"workload.applications.0.injection_rate=float={v}")
        sweep.run()
        csv_path = tmp_path / "sweep.csv"
        html_path = tmp_path / "index.html"
        assert sweep.write_csv(str(csv_path)) == 1
        sweep.write_html_index(str(html_path))
        assert "job_id" in csv_path.read_text()
        html = html_path.read_text()
        assert "outputs" in html
        assert "R0.05" in html

    def test_run_without_variables_rejected(self):
        sweep = Sweep(tiny_base())
        with pytest.raises(ValueError):
            sweep.generate_jobs()
