"""Events for the discrete event simulation core.

An event (paper Fig. 1) is a small object with:

* a time at which it executes (``tick`` + ``epsilon``),
* the component that will perform the execution (its handler), and
* optional component-specific data.

Events are created by components and pushed into the simulator's global
priority queue.  The executer pops them in time order and calls
``handler(event)``.

Every scheduling allocates its own :class:`Event`, so a handle the
caller keeps refers to that one logical event for good: it still shows
its ``handler`` and ``data`` after firing, and ``cancel()`` on it is a
no-op once the handler has run.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.simtime import TimeStep


class Event:
    """A scheduled callback with optional payload.

    Attributes:
        handler: callable invoked as ``handler(event)`` when the event
            fires.  Usually a bound method of a :class:`Component`.
        time: the :class:`TimeStep` at which the event fires.  Set by the
            simulator when the event is scheduled.
        data: arbitrary component-specific payload.
        cancelled: if set before the event fires, the executer drops it.
        fired: set by the executer right before the handler runs.
    """

    __slots__ = (
        "handler",
        "tick",
        "epsilon",
        "data",
        "cancelled",
        "fired",
    )

    def __init__(self, handler: Callable[["Event"], None], data: Any = None):
        self.handler = handler
        self.tick: Optional[int] = None
        self.epsilon: int = 0
        self.data = data
        self.cancelled = False
        self.fired = False

    @property
    def time(self) -> Optional[TimeStep]:
        """The scheduled (tick, epsilon), or None before scheduling."""
        if self.tick is None:
            return None
        return TimeStep(self.tick, self.epsilon)

    def cancel(self) -> None:
        """Mark this event so the executer skips it.

        Cancellation is O(1): the event stays in the queue but its handler
        is not invoked.  This mirrors the common DES lazy-delete idiom.
        Cancelling an event that already fired is a no-op: once the
        handler ran there is nothing left to stop.
        """
        if not self.fired:
            self.cancelled = True

    def __repr__(self):
        name = getattr(self.handler, "__qualname__", repr(self.handler))
        return f"Event({name} @ {self.time}, data={self.data!r})"
