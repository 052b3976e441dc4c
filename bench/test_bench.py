"""Tests of the benchmark itself (``python -m pytest bench -q``; not tier-1)."""

import cProfile
import json
import os
import pstats
import re

import pytest

from bench import run, trace
from bench.workloads import DEFAULT_SEED, WORKLOADS, Workload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["bench"]
    for word in spec["command"]:
        assert not word.startswith("/") and ".." not in word.split("/")
        if "/" in word:
            assert word.split("/")[0] in spec["paths"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 2) <= 3420, "driver's time cap"

    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names)), "a name is used once"

    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    assert end_to_end["setup_s"]["unit"] == "s"
    assert end_to_end["setup_s"]["better"] == "lower"
    assert end_to_end["setup_s"]["bound"] == max(
        m["bound"] for m in spec["end_to_end"]
    )


def test_declared_workloads_and_pins_match_the_generator(spec):
    declared = [(w["name"], w["why"]) for w in spec["workloads"]]
    assert declared == [(w.name, w.why) for w in WORKLOADS]
    pins = run.load_pins()
    assert pins["seed"] == DEFAULT_SEED
    assert set(pins["workloads"]) == {w.name for w in WORKLOADS}


def test_span_self_time_is_duration_minus_children():
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.5, 10.0])
    tracer = trace.Tracer("t")
    real = trace.time.perf_counter
    trace.time.perf_counter = lambda: next(clock)
    try:
        with tracer.span("root"):          # 0 .. 10
            with tracer.span("a"):         # 1 .. 2
                pass
            with tracer.span("a"):         # 3 .. 4.5
                pass
    finally:
        trace.time.perf_counter = real
    root, first, second = tracer.spans
    assert (first["parent"], second["parent"]) == (root["id"], root["id"])
    assert {s["run"] for s in tracer.spans} == {"t"}
    self_times = trace.self_times(tracer.spans)
    assert self_times[root["id"]] == pytest.approx(10.0 - 1.0 - 1.5)
    assert self_times[first["id"]] == pytest.approx(1.0)
    totals = trace.sum_by_name(tracer.spans, trace.durations(tracer.spans))
    assert totals["a"] == pytest.approx(2.5)


def test_disabled_tracer_records_nothing():
    tracer = trace.Tracer("t", enabled=False)
    with tracer.span("x"):
        pass
    assert tracer.spans == []


def smoke_workload() -> Workload:
    from repro.configs import flow_control_config

    return Workload(
        "smoke", "single",
        lambda seed: flow_control_config(
            message_size=2, injection_rate=0.2, warmup=50, window=150,
            seed=seed),
        True, "200-tick torus run for the benchmark's own tests",
    )


def test_fold_names_a_layer_for_95_percent_of_repro_self_time():
    import repro
    from repro import Settings, Simulation

    simulation = Simulation(Settings.from_dict(smoke_workload().build(1)))
    profiler = cProfile.Profile()
    profiler.enable()
    simulation.run()
    profiler.disable()
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    fold = trace.fold_profile(pstats.Stats(profiler).stats, package_dir)
    assert set(fold) == set(trace.LAYERS)
    in_repro = sum(v for layer, v in fold.items() if layer != "other")
    assert in_repro > 0
    assert fold["misc"] <= 0.05 * in_repro
    assert fold["router.input_queued"] > 0
    assert fold["router.output_queued"] == 0


def test_smoke_pipeline_passes_and_a_wrong_pin_fails():
    workload = smoke_workload()
    unpinned = run.Session(workload, 7, None)
    run.measure(unpinned, seconds=0, reps=2)
    assert (unpinned.attempted, unpinned.failed) == (2, 0), unpinned.reasons
    samples = unpinned.samples()
    assert all(len(values) == 2 for values in samples.values())
    assert all(value > 0 for values in samples.values() for value in values)

    right = dict(unpinned.expect)
    pins = {"seed": 7, "workloads": {"smoke": right}}
    pinned = run.Session(workload, 7, pins)
    pinned.rep()
    assert pinned.failed == 0, pinned.reasons

    wrong = dict(right, sha256="0" * 64)
    mispinned = run.Session(
        workload, 7, {"seed": 7, "workloads": {"smoke": wrong}}
    )
    mispinned.rep()
    assert (mispinned.attempted, mispinned.failed) == (1, 1)
    assert "sha256" in mispinned.reasons[0]


def test_traced_smoke_run_fills_every_declared_layer_row(spec):
    workload = smoke_workload()
    session = run.Session(workload, 7, None)
    rows = run.layer_metrics(session, run.fingerprint())
    assert set(rows) == {m["name"] for m in spec["per_layer"]}
    self_total = sum(v for k, v in rows.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(rows["profile.run_s"], rel=0.05)
    assert rows["partition.run_s"] == 0 and rows["tools.jobs"] == 0
    with open(os.path.join(run.OUT_DIR, "trace_smoke.jsonl")) as handle:
        header, *spans = [json.loads(line) for line in handle]
    assert header["type"] == "fingerprint" and header["workload"] == "smoke"
    by_name = {s["name"]: s for s in spans}
    assert by_name["sim.run"]["parent"] == by_name["pipeline"]["id"]
    assert len({s["run"] for s in spans}) == 1
