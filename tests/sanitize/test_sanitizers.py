"""The sanitizer mutation-fixture suite.

Every deliberately broken model in ``fixtures.broken_models`` must be
caught by exactly the sanitizer built for its bug class -- and the same
simulations must run *clean* with the broken model swapped back out.
Both directions matter: a sanitizer that never fires proves nothing,
and one that fires on correct models is unusable.
"""

from __future__ import annotations

import pytest

from repro import Settings, Simulation
from repro.core.simulator import Simulator
from repro.sanitize import (
    SANITIZER_NAMES,
    SanitizerError,
    attach_sanitizers,
)

from tests.conftest import small_torus_config
from tests.sanitize.fixtures import broken_models  # noqa: F401 - registers fixtures


class BareSimulation:
    """Just enough of the Simulation surface for network-less sanitizers."""

    def __init__(self, simulator: Simulator):
        self.simulator = simulator


def torus_simulation(**network_overrides) -> Simulation:
    config = small_torus_config()
    for key, value in network_overrides.items():
        keys = key.split(".")
        node = config["network"]
        for part in keys[:-1]:
            node = node[part]
        node[keys[-1]] = value
    return Simulation(Settings.from_dict(config))


# -- every fixture is caught ---------------------------------------------------


@pytest.mark.mutation
def test_credit_san_catches_leaked_credit():
    simulation = torus_simulation(**{"router.architecture": "leaky_credit"})
    with attach_sanitizers(simulation, "credit") as suite:
        with pytest.raises(SanitizerError, match="credit accounting gap"):
            simulation.run()
            suite.finish()


@pytest.mark.mutation
def test_flit_san_catches_stream_corruption():
    simulation = torus_simulation(**{"interface.type": "head_resend"})
    with attach_sanitizers(simulation, "flit") as suite:
        with pytest.raises(SanitizerError, match=r"\[flit\]"):
            simulation.run()
            suite.finish()


@pytest.mark.mutation
def test_flit_san_catches_dropped_flit():
    simulation = torus_simulation(**{"router.architecture": "flit_dropper"})
    with attach_sanitizers(simulation, "flit") as suite:
        with pytest.raises(SanitizerError, match=r"\[flit\]"):
            simulation.run()
            suite.finish()


@pytest.mark.mutation
def test_event_san_catches_stale_cancel():
    simulator = Simulator()
    model = broken_models.StaleCancelModel(simulator)
    with attach_sanitizers(BareSimulation(simulator), "event"):
        with pytest.raises(SanitizerError, match="stale cancel"):
            simulator.run()
    assert model.fired_ticks == [10]


@pytest.mark.mutation
def test_event_san_catches_double_schedule():
    simulator = Simulator()
    broken_models.DoubleScheduleModel(simulator)
    with attach_sanitizers(BareSimulation(simulator), "event"):
        with pytest.raises(SanitizerError, match="double fire"):
            simulator.run()


@pytest.mark.mutation
def test_event_san_catches_time_field_mutation():
    simulator = Simulator()
    broken_models.TimeMutatorModel(simulator)
    with attach_sanitizers(BareSimulation(simulator), "event"):
        with pytest.raises(SanitizerError, match="time fields mutated"):
            simulator.run()


@pytest.mark.mutation
@pytest.mark.parametrize("run", [
    lambda simulator: simulator.run(max_events=1_000),
    lambda simulator: simulator.run_until(1_000),
], ids=["budgeted", "windowed"])
@pytest.mark.parametrize("model, violation", [
    (broken_models.StaleCancelModel, "stale cancel"),
    (broken_models.DoubleScheduleModel, "double fire"),
])
def test_event_san_checks_ride_every_run_mode(model, violation, run):
    """One executer loop: the lifecycle fixtures are caught in budgeted
    and windowed runs exactly as in the plain runs above."""
    simulator = Simulator()
    model(simulator)
    with attach_sanitizers(BareSimulation(simulator), "event") as suite:
        with pytest.raises(SanitizerError, match=violation):
            run(simulator)
        assert suite.report() == {"event": {"checks": 2}}


@pytest.mark.mutation
def test_det_san_catches_unseeded_randomness():
    import random

    digests = []
    for seed in (1, 2):
        random.seed(seed)  # two "identical" runs with different global state
        simulator = Simulator()
        broken_models.UnseededRandomModel(simulator)
        with attach_sanitizers(BareSimulation(simulator), "det") as suite:
            simulator.run()
            suite.finish()
            digests.append(suite.report()["det"]["digest"])
    assert digests[0] != digests[1]


@pytest.mark.mutation
def test_det_san_locates_divergence_inside_one_routers_step(monkeypatch):
    """Steps ride one engine event per tick (the step wheel), yet DetSan
    folds every registrant: a divergence seeded in one router's ``_step``
    is located to that router and tick, not to "the wheel"."""
    runs = []
    for restless_after in (None, 600):
        monkeypatch.setattr(
            broken_models.RestlessRouter, "RESTLESS_AFTER", restless_after
        )
        simulation = torus_simulation(**{"router.architecture": "restless"})
        with attach_sanitizers(simulation, "det") as suite:
            simulation.run()
            suite.finish()
            runs.append((simulation, suite.sanitizers[0]))
    (_, clean), (simulation, restless) = runs
    router = simulation.network.routers[
        broken_models.RestlessRouter.RESTLESS_ROUTER
    ]
    assert router.extra_step_tick is not None
    located = clean.diff(restless)["other"]
    assert located["component"] == router.full_name
    assert located["handler"].endswith("._step")
    assert (located["tick"], located["epsilon"]) == (router.extra_step_tick, 3)


# -- and the unbroken equivalents run clean ------------------------------------


def test_all_sanitizers_clean_on_correct_models():
    simulation = torus_simulation()
    with attach_sanitizers(simulation, "all") as suite:
        simulation.run()
        suite.finish()
        report = suite.report()
    assert simulation.workload.drained
    assert set(report) == set(SANITIZER_NAMES)
    for name in SANITIZER_NAMES:
        assert report[name]["checks"] > 0, f"{name} never checked anything"
    assert report["flit"]["in_flight"] == 0


@pytest.mark.parametrize(
    "architecture", ["input_queued", "output_queued", "input_output_queued"]
)
def test_sanitizers_clean_across_router_architectures(architecture):
    simulation = torus_simulation(**{"router.architecture": architecture})
    with attach_sanitizers(simulation, "all") as suite:
        simulation.run()
        suite.finish()
    assert simulation.workload.drained


def test_det_san_same_seed_runs_match():
    digests = []
    for _ in range(2):
        simulation = torus_simulation()
        with attach_sanitizers(simulation, "det") as suite:
            simulation.run()
            suite.finish()
            digests.append(suite.report()["det"]["digest"])
    assert digests[0] == digests[1]


def test_det_san_diff_locates_divergence():
    from repro.sanitize import DetSan, first_divergence

    run_a = DetSan()
    run_b = DetSan()
    run_a.trace = [(1, 10, "a", "h"), (2, 20, "b", "h"), (3, 30, "c", "h")]
    run_b.trace = [(1, 10, "a", "h"), (2, 21, "x", "h"), (3, 31, "c", "h")]
    assert first_divergence(run_a.trace, run_b.trace) == 1
    diff = run_a.diff(run_b)
    assert diff["index"] == 1
    assert diff["self"]["tick"] == 0 and diff["self"]["epsilon"] == 2
    assert (diff["self"]["component"], diff["other"]["component"]) == ("b", "x")
    run_b.trace = list(run_a.trace)
    run_b.digest = run_a.digest
    assert run_a.diff(run_b) is None


# -- attach/detach hygiene ----------------------------------------------------


def test_detach_restores_patched_methods():
    from repro.core.event import Event
    from repro.net.channel import Channel, CreditChannel
    from repro.net.credit import CreditTracker

    originals = (
        Channel.send_flit,
        Channel._deliver_item,
        CreditChannel.send_credit,
        CreditChannel._deliver_item,
        CreditTracker.take,
        CreditTracker.give,
        Event.cancel,
    )
    simulation = torus_simulation()
    with attach_sanitizers(simulation, "all"):
        patched = (
            Channel.send_flit,
            CreditTracker.take,
            Event.cancel,
        )
        assert all(now is not before for now, before in
                   zip(patched, (originals[0], originals[4], originals[6])))
    assert (
        Channel.send_flit,
        Channel._deliver_item,
        CreditChannel.send_credit,
        CreditChannel._deliver_item,
        CreditTracker.take,
        CreditTracker.give,
        Event.cancel,
    ) == originals


def test_detach_runs_even_when_violation_raises():
    from repro.net.channel import Channel

    original = Channel.send_flit
    simulation = torus_simulation(**{"router.architecture": "leaky_credit"})
    with pytest.raises(SanitizerError):
        with attach_sanitizers(simulation, "credit") as suite:
            simulation.run()
            suite.finish()
    assert Channel.send_flit is original


def test_unsanitized_simulation_unaffected_while_attached():
    """Patched classes must pass through for simulations not attached."""
    sanitized = torus_simulation()
    with attach_sanitizers(sanitized, "credit,flit"):
        other = torus_simulation()
        other.run()
        assert other.workload.drained


def test_spec_parsing():
    from repro.sanitize.base import _parse_spec

    assert _parse_spec("all") == list(SANITIZER_NAMES)
    assert _parse_spec("det, credit") == ["credit", "det"]  # canonical order
    assert _parse_spec(["flit"]) == ["flit"]
    with pytest.raises(SanitizerError):
        _parse_spec("")


def test_unknown_sanitizer_name_is_rejected():
    simulation = torus_simulation()
    with pytest.raises(Exception) as excinfo:
        attach_sanitizers(simulation, "credit,bogus")
    assert "bogus" in str(excinfo.value)
