"""Unit tests for the per-tick phase wheel (``repro.core.wheel``)."""

from __future__ import annotations

import pytest

from repro.core.simulator import SimulationError, Simulator
from repro.core.wheel import PhaseWheel

EPSILON = 3


@pytest.fixture
def wheel(simulator):
    return simulator.wheel(EPSILON)


def test_simulator_owns_one_wheel_per_epsilon(simulator, wheel):
    assert simulator.wheel(EPSILON) is wheel
    assert simulator.wheel(EPSILON + 1) is not wheel
    assert Simulator().wheel(EPSILON) is not wheel
    assert (wheel.simulator, wheel.epsilon) == (simulator, EPSILON)

    class OtherWheel(PhaseWheel):
        __slots__ = ()

    with pytest.raises(SimulationError, match="is a PhaseWheel, not a OtherWheel"):
        simulator.wheel(EPSILON, OtherWheel)


def test_fire_order_is_registration_order_across_interleaved_ticks(
    simulator, wheel
):
    fired = []

    def registrant(name):
        return lambda event: fired.append(
            (simulator.tick, simulator.epsilon, name)
        )

    for tick, name in [(7, "a"), (5, "b"), (7, "c"), (5, "d"), (6, "e"), (5, "f")]:
        wheel.add(tick, registrant(name))
    simulator.run()
    assert fired == [
        (5, EPSILON, "b"), (5, EPSILON, "d"), (5, EPSILON, "f"),
        (6, EPSILON, "e"),
        (7, EPSILON, "a"), (7, EPSILON, "c"),
    ]


def test_one_engine_event_per_busy_tick(simulator, wheel):
    calls = []
    for tick in (2, 2, 2, 9, 4, 4):
        wheel.add(tick, calls.append)
    assert simulator.pending_events == 3
    simulator.run()
    assert simulator.executed_events == 3
    assert len(calls) == 6
    # Every registrant of a tick is handed that tick's one engine event.
    assert len({id(event) for event in calls[:3]}) == 1
    assert not wheel._slots


def test_registering_a_later_tick_from_inside_a_fire(simulator, wheel):
    fired = []

    def hop(event):
        fired.append(simulator.tick)
        if simulator.tick < 4:
            wheel.add(simulator.tick + 1, hop)

    wheel.add(1, hop)
    simulator.run()
    assert fired == [1, 2, 3, 4]
    assert simulator.executed_events == 4


@pytest.mark.parametrize("offset", [0, -1])
def test_registering_the_current_or_a_past_tick_while_running_raises(
    simulator, wheel, offset
):
    wheel.add(5, lambda event: wheel.add(5 + offset, lambda event: None))
    with pytest.raises(SimulationError, match="not after the current time"):
        simulator.run()
    assert not wheel._slots  # the refused registration left nothing behind


def test_same_tick_registration_from_an_earlier_epsilon_joins_the_phase(
    simulator, wheel
):
    fired = []
    wheel.add(5, lambda event: fired.append("first"))
    simulator.call_at(
        5, lambda event: wheel.add(5, lambda event: fired.append("late")),
        epsilon=EPSILON - 1,
    )
    simulator.run()
    assert fired == ["first", "late"]


def test_registrant_exception_propagates_unchanged(simulator, wheel):
    class Boom(LookupError):
        pass

    def bad(event):
        raise Boom("from registrant")

    fired = []
    wheel.add(3, lambda event: fired.append("before"))
    wheel.add(3, bad)
    wheel.add(3, lambda event: fired.append("after"))
    with pytest.raises(Boom, match="^from registrant$"):
        simulator.run()
    assert fired == ["before"]


def test_max_seconds_stops_within_one_timestamp_of_the_deadline(
    simulator, wheel, monkeypatch
):
    """One engine event can be a whole network phase, so the wall clock
    is tested per timestamp, not per 1 024 events: with 5 s phases (on a
    fake clock) a 12 s budget stops after the third of ten, not after
    all of them."""
    from types import SimpleNamespace

    import repro.core.simulator as engine

    clock = [100.0]
    monkeypatch.setattr(
        engine, "_wallclock", SimpleNamespace(monotonic=lambda: clock[0])
    )
    fired = []

    def slow(event):
        clock[0] += 5.0
        fired.append(simulator.tick)

    for tick in range(1, 11):
        wheel.add(tick, slow)
    simulator.run(max_seconds=12.0)
    assert fired == [1, 2, 3]
    assert simulator.pending_events == 7
    simulator.run()
    assert fired == list(range(1, 11))
