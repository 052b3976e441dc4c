"""EventSan: event lifecycle and engine-field integrity.

Every scheduling allocates its own :class:`Event`, so the engine never
aliases a handle -- but model code can still misuse the lifecycle in
ways that stay silent:

* scheduling the *same* Event object twice via ``add_event`` -- the
  first firing marks it fired, the second queue entry then executes a
  logically dead event;
* cancelling a stale handle whose event already fired -- a no-op by
  design, but almost always means the model believes it stopped
  something it did not;
* mutating engine-owned fields (``tick``/``epsilon``) after
  scheduling -- the bucket key was computed at scheduling time, so the
  event silently fires at the *old* time.

EventSan makes all three loud.  The pre-fire check flags an event
that already fired and cross-checks the packed entry key against the
event's fields at every firing; ``Event.cancel`` is patched to raise on
a stale cancel instead of no-opping (for as long as the suite is
attached, on any simulator's events: an event does not know its
simulator).
"""

from __future__ import annotations

from repro import factory
from repro.core.event import Event
from repro.core.simulator import EPSILON_BITS
from repro.sanitize.base import MethodPatch, Sanitizer


@factory.register(Sanitizer, "event")
class EventSan(Sanitizer):
    """Verify event lifecycle flags and time fields."""

    name = "event"
    description = (
        "event lifecycle: flag double fires, stale cancels, and "
        "engine-field mutation"
    )

    def _install(self, simulation) -> None:
        def wrap_cancel(original):
            def cancel(event):
                if event.fired:
                    self.violation(
                        f"stale cancel: {event!r} already fired; the "
                        f"handle was retained past the event's lifetime "
                        f"and no longer refers to a pending event"
                    )
                original(event)

            return cancel

        self._patches = [MethodPatch(Event, "cancel", wrap_cancel)]

    def pre_event_hook(self):
        def check(entry_key, event):
            self.checks += 1
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
