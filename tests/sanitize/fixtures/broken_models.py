"""Deliberately broken models: the sanitizer mutation-fixture suite.

Each model here seeds exactly one bug from the paper's silent-corruption
case studies (or from the engine-rewrite hazard class) while staying
fully type-correct and runnable.  The tests in ``tests/sanitize`` prove
that the matching sanitizer catches each one -- and that nothing else
in the stack does, which is the point: without the sanitizer these runs
complete and report plausible numbers.

The models register with the object factory exactly like real user
models, so the fixtures also exercise the factory path a user's broken
model would take.
"""

from __future__ import annotations

from repro import factory
from repro.core.component import Component
from repro.core.event import Event
from repro.net.flit import Flit
from repro.net.interface import Interface, StandardInterface
from repro.router.base import Router
from repro.router.input_queued import InputQueuedRouter


@factory.register(Router, "leaky_credit")
class LeakyCreditRouter(InputQueuedRouter):
    """Credit-accounting gap: silently drops every Nth upstream credit.

    The flit is consumed normally; only the credit return is skipped, so
    the upstream tracker believes the slot is occupied forever.  Local
    tracker assertions never trip (counts only ratchet down), throughput
    just quietly degrades -- the paper's credit-accounting bug class.
    """

    LEAK_EVERY = 7

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._credit_sends = 0

    def send_credit(self, port: int, vc: int) -> None:
        self._credit_sends += 1
        if self._credit_sends % self.LEAK_EVERY == 0:
            return  # the leak: slot freed, credit never returned
        super().send_credit(port, vc)


@factory.register(Router, "flit_dropper")
class FlitDroppingRouter(InputQueuedRouter):
    """Flit loss: silently discards every Nth arriving flit.

    The flit vanishes between channel and input buffer: never buffered,
    never forwarded, its credit never returned.  No local check fires;
    the affected message simply never completes.
    """

    DROP_EVERY = 50

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._flit_arrivals = 0

    def receive_flit(self, port: int, flit: Flit) -> None:
        self._flit_arrivals += 1
        if self._flit_arrivals % self.DROP_EVERY == 0:
            return  # the drop
        super().receive_flit(port, flit)


@factory.register(Router, "restless")
class RestlessRouter(InputQueuedRouter):
    """Determinism leak inside one router's ``_step``: consults state
    outside the simulation (``RESTLESS_AFTER``, standing in for a wall
    clock or an unseeded RNG) and, the first time router
    ``RESTLESS_ROUTER`` goes to sleep at or after that tick, wakes it for
    one extra idle step.  Results are unaffected -- only the step
    wheel's registrant sequence can tell."""

    RESTLESS_ROUTER = 5
    RESTLESS_AFTER = None  # tick; None = behave

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.extra_step_tick = None

    def _step(self, event: Event) -> None:
        super()._step(event)
        if (
            self.router_id == self.RESTLESS_ROUTER
            and self.RESTLESS_AFTER is not None
            and self.extra_step_tick is None
            and self.simulator.tick >= self.RESTLESS_AFTER
            and not self._step_scheduled
        ):
            self._wake()
            self.extra_step_tick = self.simulator.tick + 1


@factory.register(Interface, "head_resend")
class HeadResendInterface(StandardInterface):
    """Stream-order corruption: re-sends the head flit in place of body 1.

    Credit and channel accounting stay perfectly balanced (same number
    of flits cross the link), so only a per-VC stream-order check can
    see that the packet's second flit is its head again.
    """

    def send_flit(self, port: int, flit: Flit) -> None:
        if not flit.head and flit.index == 1:
            resent = flit.packet.flit(0)
            resent.vc = flit.vc
            flit = resent
        super().send_flit(port, flit)


class StaleCancelModel(Component):
    """Event-lifecycle misuse: cancels a handle whose event already fired.

    The model keeps the handle past the event's lifetime and "stops" it
    later -- a no-op by design (the engine tolerates stale cancels), but
    the model now believes it prevented work that already happened.
    """

    def __init__(self, simulator, name="stale_cancel", parent=None):
        super().__init__(simulator, name, parent)
        self.handle: Event = self.schedule_at(self._tick_once, 10)
        self.schedule_at(self._late_stop, 20)
        self.fired_ticks = []

    def _tick_once(self, event: Event) -> None:
        self.fired_ticks.append(self.simulator.tick)

    def _late_stop(self, event: Event) -> None:
        self.handle.cancel()  # the bug: the event fired at tick 10


class DoubleScheduleModel(Component):
    """Event-lifecycle misuse: queues the same Event object twice.

    Both queue entries point at one object; the second firing executes a
    logically dead event.
    """

    def __init__(self, simulator, name="double_schedule", parent=None):
        super().__init__(simulator, name, parent)
        event = Event(self._work)
        simulator.add_event(event, 10)
        simulator.add_event(event, 10)  # same time: one object, two entries
        self.fire_count = 0

    def _work(self, event: Event) -> None:
        self.fire_count += 1


class TimeMutatorModel(Component):
    """Engine-field misuse: rewrites ``event.tick`` after scheduling.

    The heap key was packed at scheduling time, so the event still fires
    at the original time while claiming another -- silent in normal runs.
    """

    def __init__(self, simulator, name="time_mutator", parent=None):
        super().__init__(simulator, name, parent)
        handle = self.schedule_at(self._work, 10)
        handle.tick = 500  # the bug: engine-owned field mutated

    def _work(self, event: Event) -> None:
        pass


class UnseededRandomModel(Component):
    """Determinism leak: schedules from the *global* ``random`` module.

    Every draw comes from process-global state instead of the
    simulation's seeded RandomManager, so two same-seed runs walk
    different event sequences.
    """

    def __init__(self, simulator, name="unseeded", parent=None, steps=50):
        super().__init__(simulator, name, parent)
        self.remaining = steps
        self.schedule_at(self._step, 1)

    def _step(self, event: Event) -> None:
        self.remaining -= 1
        if self.remaining <= 0:
            return
        import random  # noqa: PLC0415 - the bug is using the global RNG

        gap = 1 + int(random.random() * 3)
        self.schedule(self._step, gap)
