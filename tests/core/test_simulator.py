"""The DES engine: ordering, cancellation, limits, registry (§III-A)."""

import pytest

from repro.core.component import Component
from repro.core.event import Event
from repro.core.simtime import TimeStep
from repro.core.simulator import SimulationError, Simulator


def test_events_execute_in_time_order(simulator):
    order = []
    simulator.call_at(30, lambda e: order.append("c"))
    simulator.call_at(10, lambda e: order.append("a"))
    simulator.call_at(20, lambda e: order.append("b"))
    simulator.run()
    assert order == ["a", "b", "c"]


def test_epsilon_orders_within_tick(simulator):
    order = []
    simulator.call_at(5, lambda e: order.append("late"), epsilon=9)
    simulator.call_at(5, lambda e: order.append("early"), epsilon=1)
    simulator.run()
    assert order == ["early", "late"]


def test_equal_times_run_in_schedule_order(simulator):
    order = []
    for tag in ("first", "second", "third"):
        simulator.call_at(7, lambda e, t=tag: order.append(t), epsilon=2)
    simulator.run()
    assert order == ["first", "second", "third"]


def test_now_advances_with_execution(simulator):
    seen = []
    simulator.call_at(12, lambda e: seen.append(simulator.now))
    simulator.run()
    assert seen == [TimeStep(12, 0)]
    assert simulator.now == TimeStep(12, 0)


def test_handler_can_schedule_more_events(simulator):
    order = []

    def first(event):
        order.append("first")
        simulator.call_at(simulator.tick + 5, lambda e: order.append("second"))

    simulator.call_at(1, first)
    simulator.run()
    assert order == ["first", "second"]
    assert simulator.tick == 6


def test_scheduling_in_past_rejected(simulator):
    def handler(event):
        with pytest.raises(SimulationError):
            simulator.call_at(3, lambda e: None)

    simulator.call_at(10, handler)
    simulator.run()


def test_scheduling_at_exact_now_rejected(simulator):
    def handler(event):
        with pytest.raises(SimulationError):
            simulator.call_at(10, lambda e: None, epsilon=0)

    simulator.call_at(10, handler, epsilon=0)
    simulator.run()


def test_same_tick_later_epsilon_allowed(simulator):
    order = []

    def handler(event):
        order.append("a")
        simulator.call_at(10, lambda e: order.append("b"), epsilon=1)

    simulator.call_at(10, handler, epsilon=0)
    simulator.run()
    assert order == ["a", "b"]


def test_cancelled_events_are_skipped(simulator):
    order = []
    event = simulator.call_at(10, lambda e: order.append("cancelled"))
    simulator.call_at(20, lambda e: order.append("kept"))
    event.cancel()
    simulator.run()
    assert order == ["kept"]


def test_event_data_payload(simulator):
    seen = []
    simulator.add_event(Event(lambda e: seen.append(e.data), data={"x": 1}), 5)
    simulator.run()
    assert seen == [{"x": 1}]


def test_run_max_time_pauses_and_resumes(simulator):
    order = []
    simulator.call_at(10, lambda e: order.append("a"))
    simulator.call_at(50, lambda e: order.append("b"))
    simulator.run(max_time=20)
    assert order == ["a"]
    assert simulator.queue_size == 1
    simulator.run()
    assert order == ["a", "b"]


def test_run_max_events(simulator):
    order = []
    for tick in (1, 2, 3, 4):
        simulator.call_at(tick, lambda e, t=tick: order.append(t))
    simulator.run(max_events=2)
    assert order == [1, 2]


def test_executed_events_counter(simulator):
    for tick in range(5):
        simulator.call_at(tick + 1, lambda e: None)
    simulator.run()
    assert simulator.executed_events == 5


def test_component_registry(simulator):
    parent = Component(simulator, "net")
    child = Component(simulator, "router3", parent)
    assert child.full_name == "net.router3"
    assert simulator.find_component("net.router3") is child
    assert simulator.find_component("missing") is None
    assert simulator.num_components == 2


def test_duplicate_component_names_rejected(simulator):
    Component(simulator, "dup")
    with pytest.raises(SimulationError):
        Component(simulator, "dup")


def test_component_name_validation(simulator):
    with pytest.raises(ValueError):
        Component(simulator, "")
    with pytest.raises(ValueError):
        Component(simulator, "a.b")


def test_component_schedule_relative(simulator):
    parent = Component(simulator, "c")
    order = []

    def start(event):
        parent.schedule(lambda e: order.append(simulator.tick), 7)

    simulator.call_at(3, start)
    simulator.run()
    assert order == [10]


def test_component_zero_delay_uses_next_epsilon(simulator):
    parent = Component(simulator, "c")
    order = []

    def start(event):
        parent.schedule(lambda e: order.append(simulator.now.epsilon), 0)

    simulator.call_at(3, start, epsilon=2)
    simulator.run()
    assert order == [3]


def test_run_observer_called(simulator):
    calls = []
    simulator.add_run_observer(lambda s: calls.append(s.tick))
    simulator.call_at(4, lambda e: None)
    simulator.run()
    assert calls == [4]


# -- pending_events (lazy-delete accounting) ----------------------------------


def test_pending_events_excludes_cancelled(simulator):
    events = [simulator.call_at(i + 1, lambda e: None) for i in range(4)]
    events[0].cancel()
    events[1].cancel()
    assert simulator.queue_size == 4  # raw length keeps the dead entries
    assert simulator.pending_events == 2


def test_cancelled_entries_stay_queued_until_reached(simulator):
    """Lazy cancellation, no compaction: dead entries keep their queue
    slot (however many there are) and are skipped when reached."""
    keep = [simulator.call_at(1000 + i, lambda e: None) for i in range(10)]
    victims = [simulator.call_at(i + 1, lambda e: None) for i in range(200)]
    for victim in victims:
        victim.cancel()
    dead_on_arrival = Event(lambda e: None)
    dead_on_arrival.cancel()
    simulator.add_event(dead_on_arrival, 5)
    assert simulator.queue_size == len(keep) + len(victims) + 1
    assert simulator.pending_events == len(keep)
    simulator.run(max_time=500)
    # Cancelled buckets never move the clock or the event counter.
    assert simulator.now == TimeStep(0, 0)
    assert simulator.executed_events == 0
    assert simulator.queue_size == simulator.pending_events == len(keep)
    simulator.run()
    assert simulator.executed_events == len(keep)


@pytest.mark.parametrize("reenter", [
    lambda simulator: simulator.run(),
    lambda simulator: simulator.run(max_events=1),
    lambda simulator: simulator.run_until(50),
])
def test_run_from_a_handler_is_rejected(simulator, reenter):
    """The executer is not re-entrant: a nested run would re-reverse
    the bucket being drained and switch the causality check off."""
    order = []

    def nested(event):
        order.append("nested")
        reenter(simulator)

    simulator.call_at(3, nested)
    simulator.call_at(3, lambda e: order.append("sibling"))
    simulator.call_at(4, lambda e: order.append("later"))
    with pytest.raises(SimulationError, match="not re-entrant"):
        simulator.run()
    # The outer run stopped like on any raising handler: the unfired
    # tail is parked in order and a fresh run resumes it.
    assert order == ["nested"]
    assert simulator.pending_events == 2
    simulator.run()
    assert order == ["nested", "sibling", "later"]


# -- per-run limit semantics ---------------------------------------------------


def test_max_events_budget_is_per_run(simulator):
    order = []
    for tick in range(1, 7):
        simulator.call_at(tick, lambda e, t=tick: order.append(t))
    simulator.run(max_events=2)
    assert order == [1, 2]
    # A resumed run gets a fresh budget, not the leftovers of a global
    # counter.
    simulator.run(max_events=2)
    assert order == [1, 2, 3, 4]
    simulator.run()
    assert order == [1, 2, 3, 4, 5, 6]


@pytest.fixture(params=["plain", "sanitized"])
def engine(request):
    """A bare engine, alone and with EventSan's hooks attached: both go
    through the one executer loop."""
    simulator = Simulator()
    if request.param == "plain":
        yield simulator
        return
    from types import SimpleNamespace

    from repro.sanitize import attach_sanitizers

    with attach_sanitizers(SimpleNamespace(simulator=simulator), "event"):
        assert simulator._sanitizer is not None
        yield simulator


def test_max_events_zero_executes_nothing(engine):
    fired = []
    engine.call_at(1, lambda e: fired.append(1))
    engine.run(max_events=0)
    assert fired == []
    assert engine.executed_events == 0
    assert engine.pending_events == 1
    engine.run(max_events=1)
    assert fired == [1]


@pytest.mark.parametrize("limits", [{"max_events": -1}, {"max_seconds": -0.5}])
def test_negative_budget_rejected(engine, limits):
    engine.call_at(1, lambda e: None)
    with pytest.raises(SimulationError, match="must be >= 0"):
        engine.run(**limits)
    assert engine.executed_events == 0


def test_max_seconds_generous_deadline_completes(simulator):
    for tick in range(1, 5):
        simulator.call_at(tick, lambda e: None)
    simulator.run(max_seconds=60.0)
    assert simulator.pending_events == 0
    assert simulator.executed_events == 4


# -- engine internals guard rails ---------------------------------------------


def test_epsilon_beyond_packed_limit_rejected(simulator):
    from repro.core.simulator import EPSILON_LIMIT

    with pytest.raises(SimulationError):
        simulator.call_at(1, lambda e: None, epsilon=EPSILON_LIMIT)
    with pytest.raises(SimulationError):
        simulator.add_event(Event(lambda e: None), 1, epsilon=EPSILON_LIMIT)


def test_index_error_in_handler_propagates(simulator):
    def bad(event):
        [].pop()

    simulator.call_at(1, bad)
    with pytest.raises(IndexError):
        simulator.run()


def test_index_error_in_handler_propagates_with_max_time(simulator):
    def bad(event):
        raise IndexError("from handler")

    simulator.call_at(1, bad)
    with pytest.raises(IndexError, match="from handler"):
        simulator.run(max_time=100)


# -- run_until windows ----------------------------------------------------------


def test_run_until_windows_are_resumable(simulator):
    fired = []
    for tick, epsilon in [(1, 0), (4, 7), (5, 0), (5, 3), (9, 0)]:
        simulator.call_at(
            tick, lambda e: fired.append((e.tick, e.epsilon)), epsilon=epsilon
        )
    # Window [0, 5): every epsilon of tick 4 runs, nothing of tick 5;
    # the first event past the limit was popped and must be put back.
    assert simulator.run_until(5) == 2
    assert fired == [(1, 0), (4, 7)]
    assert simulator.now == TimeStep(4, 7)
    assert simulator.executed_events == 2
    assert simulator.pending_events == 3
    # An empty window executes nothing and leaves the clock alone.
    assert simulator.run_until(5) == 0
    assert simulator.now == TimeStep(4, 7)
    # Scheduling between windows lands in order with the put-back event.
    simulator.call_at(5, lambda e: fired.append("injected"), epsilon=1)
    assert simulator.run_until(6) == 3
    assert fired[2:] == [(5, 0), "injected", (5, 3)]
    assert simulator.now == TimeStep(5, 3)
    assert simulator.executed_events == 5
    # A plain run() resumes from the same queue state.
    simulator.run()
    assert fired[-1] == (9, 0)
    assert simulator.executed_events == 6
    assert simulator.pending_events == 0


def test_run_until_propagates_index_error_from_handler(simulator):
    def bad(event):
        raise IndexError("from handler")

    simulator.call_at(2, bad)
    simulator.call_at(3, lambda e: None)
    with pytest.raises(IndexError, match="from handler"):
        simulator.run_until(10)
    # The failing event still counts as popped, not executed; the rest
    # of the queue is intact.
    assert simulator.now == TimeStep(2, 0)
    assert simulator.pending_events == 1
