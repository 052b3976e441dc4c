"""EventSan: freelist use-after-reuse and engine-field integrity.

The PR 1 engine rewrite recycles fired :class:`Event` objects through a
freelist.  Recycling is refcount-gated (an event the caller kept a
handle to is never pooled), so the engine itself cannot alias a live
handle -- but model code can still misuse the lifecycle in ways that
stay silent:

* scheduling the *same* Event object twice via ``add_event`` -- the
  first firing marks it fired, the second queue entry then executes a
  logically dead event;
* cancelling a stale handle whose event already fired -- a no-op by
  design, but almost always means the model believes it stopped
  something it did not;
* mutating engine-owned fields (``tick``/``epsilon``) after
  scheduling -- the bucket key was computed at scheduling time, so the
  event silently fires at the *old* time.

EventSan makes all three loud.  Pooled events are *poisoned* (handler
replaced with a sentinel) the instant they enter the freelist, so any
path that executes or re-schedules a recycled carcass trips the
pre-fire check; the packed entry key is cross-checked against the
event's fields at every firing; and ``Event.cancel`` is patched to
raise on a stale cancel instead of no-opping.
"""

from __future__ import annotations

from repro import factory
from repro.core.event import Event
from repro.core.simulator import EPSILON_BITS
from repro.sanitize.base import MethodPatch, Sanitizer


def _poisoned_handler(event) -> None:  # pragma: no cover - sentinel only
    raise AssertionError(
        "poisoned freelist event executed; EventSan should have caught "
        "this in its pre-fire check"
    )


@factory.register(Sanitizer, "event")
class EventSan(Sanitizer):
    """Poison recycled events; verify lifecycle flags and time fields."""

    name = "event"
    description = (
        "freelist use-after-reuse: poison recycled events, flag double "
        "fires, stale cancels, and engine-field mutation"
    )

    def __init__(self) -> None:
        super().__init__()
        self.poisoned = 0

    def _install(self, simulation) -> None:
        simulator = simulation.simulator

        def wrap_cancel(original):
            def cancel(event):
                if (
                    event._sim is simulator
                    and event.fired
                    and not event.cancelled
                ):
                    self.violation(
                        f"stale cancel: {event!r} already fired "
                        f"(generation {event.generation}); the handle was "
                        f"retained past the event's lifetime and no "
                        f"longer refers to a pending event"
                    )
                original(event)

            return cancel

        self._patches = [MethodPatch(Event, "cancel", wrap_cancel)]

    def pre_event_hook(self):
        def check(entry_key, event):
            self.checks += 1
            if event.handler is _poisoned_handler:
                self.violation(
                    f"recycled event executed: a freelist carcass "
                    f"(generation {event.generation}) was re-scheduled "
                    f"through a stale handle"
                )
            if event.fired:
                self.violation(
                    f"double fire: {event!r} executed twice from one "
                    f"scheduling -- the same Event object was added to "
                    f"the queue more than once"
                )
            if ((event.tick << EPSILON_BITS) | event.epsilon) != entry_key:
                self.violation(
                    f"engine-owned time fields mutated after scheduling: "
                    f"queue entry fires at key {entry_key:#x} but the "
                    f"event now claims ({event.tick}, {event.epsilon}); "
                    f"tick/epsilon are read-only once scheduled"
                )

        return check

    def recycle_hook(self):
        def poison(event):
            event.handler = _poisoned_handler
            event.data = None
            self.poisoned += 1

        return poison

    def report(self):
        return {"checks": self.checks, "poisoned": self.poisoned}
