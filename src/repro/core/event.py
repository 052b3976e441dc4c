"""Events for the discrete event simulation core.

An event (paper Fig. 1) is a small object with:

* a time at which it executes (``tick`` + ``epsilon``),
* the component that will perform the execution (its handler), and
* optional component-specific data.

Events are created by components and pushed into the simulator's global
priority queue.  The executer pops them in time order and calls
``handler(event)``.

Performance note -- recycling and generations: the simulator keeps a
freelist of fired events (see ``docs/PERFORMANCE.md``) so the hot path
does not allocate one object per event.  An event is only recycled when
the executer holds the *sole* reference to it, so no live handle can
alias a reused event.  ``generation`` counts how many times the object
has been handed out; it increments on every reuse, letting tests and
tools detect recycling, and ``cancel()`` refuses to act once the event
has fired, so a stale cancel of an already-executed handle is a no-op
instead of a landmine.
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
        generation: incremented each time the simulator reuses this
            object from its freelist; a handle whose generation changed
            refers to a different logical event.
    """

    __slots__ = (
        "handler",
        "tick",
        "epsilon",
        "data",
        "cancelled",
        "generation",
        "fired",
        "_sim",
    )

    def __init__(self, handler: Callable[["Event"], None], data: Any = None):
        self.handler = handler
        self.tick: Optional[int] = None
        self.epsilon: int = 0
        self.data = data
        self.cancelled = False
        self.generation = 0
        self.fired = False
        self._sim = None

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
        handler ran there is nothing left to stop, and the object may
        since have been recycled for an unrelated scheduling (see the
        ``generation`` counter).  The simulator tracks how many pending
        queue entries are cancelled and compacts the queue when the dead
        fraction grows too large.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancel()

    def __repr__(self):
        name = getattr(self.handler, "__qualname__", repr(self.handler))
        return f"Event({name} @ {self.time}, data={self.data!r})"
