"""Event object behaviour."""

from repro.core.event import Event
from repro.core.simtime import TimeStep
from repro.core.simulator import Simulator


def test_time_property_before_scheduling():
    event = Event(lambda e: None)
    assert event.time is None


def test_time_property_after_scheduling():
    simulator = Simulator()
    event = simulator.call_at(10, lambda e: None, epsilon=3)
    assert event.time == TimeStep(10, 3)


def test_data_defaults_to_none():
    assert Event(lambda e: None).data is None


def test_cancel_flag():
    event = Event(lambda e: None)
    assert not event.cancelled
    event.cancel()
    assert event.cancelled


def test_repr_mentions_handler():
    def my_handler(event):
        pass

    event = Event(my_handler, data=7)
    assert "my_handler" in repr(event)


def test_cancel_after_fire_is_noop():
    simulator = Simulator()
    fired = []
    handle = simulator.call_at(5, lambda e: fired.append(True))
    simulator.run()
    assert fired == [True]
    assert handle.fired
    handle.cancel()
    assert not handle.cancelled


def test_retained_handle_keeps_its_event_after_firing():
    """Every scheduling allocates its own Event: a handle the caller
    kept still shows that event's handler and data after it fired, a
    later scheduling never aliases it, and cancel() on it is a no-op."""
    simulator = Simulator()
    runs = []

    def first(event):
        runs.append(event.data)

    handle = simulator.call_at(1, first, data="a")
    simulator.run()
    fresh = simulator.call_at(2, lambda e: runs.append(e.data), data="b")
    assert fresh is not handle
    assert handle.fired and handle.handler is first and handle.data == "a"
    handle.cancel()  # stale cancel of the fired event: no-op
    assert not handle.cancelled and not fresh.cancelled
    simulator.run()
    assert runs == ["a", "b"]
    assert handle.handler is first and handle.data == "a"


def test_cancel_before_fire_skips_only_that_event():
    simulator = Simulator()
    runs = []
    simulator.call_at(1, lambda e: runs.append("warm"))
    simulator.run()
    victim = simulator.call_at(2, lambda e: runs.append("victim"))
    victim.cancel()
    simulator.call_at(3, lambda e: runs.append("kept"))
    simulator.run()
    assert runs == ["warm", "kept"]
