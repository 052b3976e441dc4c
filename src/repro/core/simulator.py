"""The discrete event simulation (DES) engine (paper §III-A, Fig. 1).

A simulation is built of :class:`~repro.core.component.Component` objects
which create :class:`~repro.core.event.Event` objects.  Each component
links to the global :class:`Simulator` and pushes its events into the
simulator's priority queue.  The executer sequentially pulls events from
the queue, ordered by ``(tick, epsilon)``, and executes them.  The
simulation is over when the event queue runs empty.

Performance notes (see ``docs/PERFORMANCE.md`` for the full story):

* The event queue is a *timestamp-bucket queue*: a dict ``packed time
  key -> events scheduled there, in scheduling order`` plus a heap of
  the *distinct* keys.  Events are ordered by ``(tick, epsilon)`` and
  nothing else, so scheduling is a dict probe and a list append, the
  executer pays one heap pop per *timestamp*, and ties break in
  scheduling order because a bucket is drained front to back.
* Time is carried as a single packed integer key through the hot path:
  ``key = (tick << 20) | epsilon``.  One machine comparison orders two
  timestamps, one hash finds a bucket, and the causality check is a
  single ``<=``.  Epsilon is therefore bounded at ``2**20 - 1``, far
  above the single-digit epsilons the component conventions use
  (:mod:`repro.net.phases`); every scheduling entry point guards the
  bound and raises :class:`SimulationError` at ``epsilon >= 2**20``
  instead of silently corrupting the key (the adjacent tick would
  absorb the overflowing epsilon).  *Tick overflow bounds:* Python
  integers never wrap, so packed keys are **correct for any tick**.
  They are *fast* while the key fits a machine word: up to
  ``tick < 2**(63 - EPSILON_BITS) = 2**43`` ticks (~2.4 hours of
  simulated time at 1 tick = 1 ns) keys stay single-digit CPython
  ints; beyond that comparisons fall onto the big-int path and merely
  slow down.  See ``tests/core/test_packed_key_bounds.py`` for the
  boundary regression tests.
* ``tick`` and ``epsilon`` are plain attributes (not properties):
  handlers read them millions of times per run.  Treat them as
  read-only.
* ``run()`` has one executer loop: the ``max_time`` limit is one
  packed-key comparison per timestamp, the ``max_events`` budget one
  comparison per event, the wall clock is read once per timestamp, and
  a sanitizer suite's hooks run before each handler.  A run that stops
  inside a bucket (budget, raising handler) leaves the unfired tail
  parked under its key in scheduling order, so a later ``run`` resumes
  exactly there.
* Cancellation is lazy: a cancelled event stays in its bucket and is
  skipped when reached; a bucket of cancelled events never moves the
  clock.
* ``Simulator`` declares ``__slots__``: attribute access shows up on
  every scheduled event, and slot access is measurably faster than a
  dict lookup.
"""

from __future__ import annotations

import gc as _gc
import heapq
import time as _wallclock
from heapq import heappush as _heappush
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.event import Event
from repro.core.simtime import MAX_EPSILON, TimeStep
from repro.core.wheel import PhaseWheel

TimeLike = Union[TimeStep, int]

#: bits reserved for epsilon inside a packed time key.
EPSILON_BITS = 20
#: exclusive upper bound for epsilon values.
EPSILON_LIMIT = 1 << EPSILON_BITS
_EPS_MASK = EPSILON_LIMIT - 1
#: ticks up to (exclusive) this bound pack into a 63-bit key, keeping
#: key comparisons and hashes on CPython's fast machine-word path.
#: Larger ticks stay *correct* (Python ints never wrap) but compare
#: slower.
TICK_FAST_LIMIT = 1 << (63 - EPSILON_BITS)
#: limit key of an unbounded run: every packed key compares below it.
_NO_LIMIT = 1 << 4096


class SimulationError(RuntimeError):
    """Raised for fatal inconsistencies detected during simulation."""


class Simulator:
    """Global event queue, executer, and component registry.

    The queue is a dict of *buckets* -- ``key -> [event, ...]`` where
    ``key`` packs ``(tick, epsilon)`` into one integer and the list is in
    scheduling order -- plus a heap of the distinct keys, so execution
    order is fully deterministic: timestamps in key order, equal times
    in scheduling order.  Every key in the heap has exactly one bucket;
    an empty one is dropped when the executer reaches it.

    Attributes:
        tick: the tick component of the current simulation time.
            Read-only by convention (plain attribute for speed).
        epsilon: the epsilon component of the current simulation time.
            Read-only by convention (plain attribute for speed).
    """

    __slots__ = (
        "_buckets",
        "_keys",
        "tick",
        "epsilon",
        "_now_key",
        "_running",
        "_executed_events",
        "_components",
        "_wheels",
        "_observers",
        "_sanitizer",
    )

    def __init__(self):
        self._buckets: Dict[int, List[Event]] = {}
        self._keys: List[int] = []
        self.tick = 0
        self.epsilon = 0
        self._now_key = 0
        self._running = False
        self._executed_events = 0
        self._components: Dict[str, "Component"] = {}
        self._wheels: Dict[int, PhaseWheel] = {}
        self._observers: List[Callable[["Simulator"], None]] = []
        # Runtime sanitizer suite (repro.sanitize), None in normal runs.
        # When set, the executer calls the suite's hooks before every
        # handler.
        self._sanitizer = None

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> TimeStep:
        """The current simulation time."""
        return TimeStep(self.tick, self.epsilon)

    @property
    def executed_events(self) -> int:
        """Total number of events executed so far."""
        return self._executed_events

    # -- component registry --------------------------------------------------

    def register_component(self, component: "Component") -> None:
        """Register a component under its full hierarchical name.

        Names must be unique; a duplicate indicates two components were
        constructed with the same parent and name, which is always a bug.
        """
        name = component.full_name
        if name in self._components:
            raise SimulationError(f"duplicate component name: {name!r}")
        self._components[name] = component

    def find_component(self, full_name: str) -> Optional["Component"]:
        """Look up a registered component by full hierarchical name."""
        return self._components.get(full_name)

    @property
    def num_components(self) -> int:
        return len(self._components)

    def wheel(self, epsilon: int, kind: type = PhaseWheel) -> PhaseWheel:
        """This simulator's one phase wheel at ``epsilon``, made as a
        ``kind`` on first use."""
        wheel = self._wheels.get(epsilon)
        if wheel is None:
            wheel = self._wheels[epsilon] = kind(self, epsilon)
        elif type(wheel) is not kind:
            raise SimulationError(
                f"the wheel at epsilon {epsilon} is a {type(wheel).__name__}, "
                f"not a {kind.__name__}"
            )
        return wheel

    # -- scheduling -----------------------------------------------------------

    def _bad_time(self, tick: int, epsilon: int) -> SimulationError:
        if epsilon >= EPSILON_LIMIT:
            return SimulationError(
                f"epsilon {epsilon} exceeds the packed-time limit "
                f"({EPSILON_LIMIT - 1}); epsilons are meant to order "
                "phases within a tick, not to carry time"
            )
        if tick < 0 or epsilon < 0:
            return SimulationError(f"bad event time ({tick}, {epsilon})")
        return SimulationError(
            f"event scheduled at ({tick}, {epsilon}), not after the "
            f"current time ({self.tick}, {self.epsilon}); "
            "use a greater tick or epsilon"
        )

    def add_event(self, event: Event, time: TimeLike, epsilon: int = 0) -> Event:
        """Schedule ``event`` at the given absolute time.

        ``time`` may be a :class:`TimeStep` (in which case ``epsilon`` is
        ignored) or an integer tick.  Scheduling at or before the current
        time while running is a fatal error: it would silently corrupt
        causality.  Same-tick scheduling needs a strictly greater epsilon.
        """
        if type(time) is int:
            tick = time
        elif isinstance(time, TimeStep):
            tick, epsilon = time.tick, time.epsilon
        else:
            tick = int(time)
        if tick < 0 or epsilon < 0 or epsilon >= EPSILON_LIMIT:
            raise self._bad_time(tick, epsilon)
        key = (tick << EPSILON_BITS) | epsilon
        if self._running and key <= self._now_key:
            raise self._bad_time(tick, epsilon)
        event.tick = tick
        event.epsilon = epsilon
        event.fired = False
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [event]
            _heappush(self._keys, key)
        else:
            bucket.append(event)
        return event

    def call_at(
        self,
        time: TimeLike,
        handler: Callable[[Event], None],
        data: Any = None,
        epsilon: int = 0,
    ) -> Event:
        """Convenience: create and schedule an event in one call."""
        if type(time) is int:
            tick = time
        elif isinstance(time, TimeStep):
            tick, epsilon = time.tick, time.epsilon
        else:
            tick = int(time)
        # Checks are inlined and packed-key based: one comparison covers
        # the whole causality test.
        if tick < 0 or epsilon < 0 or epsilon >= EPSILON_LIMIT:
            raise self._bad_time(tick, epsilon)
        key = (tick << EPSILON_BITS) | epsilon
        if self._running and key <= self._now_key:
            raise self._bad_time(tick, epsilon)
        event = Event(handler, data)
        event.tick = tick
        event.epsilon = epsilon
        bucket = self._buckets.get(key)
        if bucket is None:
            # First event of this timestamp: the only heap operation.
            self._buckets[key] = [event]
            _heappush(self._keys, key)
        else:
            bucket.append(event)
        return event

    @property
    def queue_size(self) -> int:
        """Raw queue length, *including* lazily-cancelled entries.

        Cancelled events stay in their bucket until reached, so this
        over-reports the true backlog; use :attr:`pending_events` for
        the number of events that will actually execute.  Counted on
        demand (one ``len`` per pending timestamp) so scheduling and
        firing carry no size bookkeeping; exact also from a handler:
        the event being fired is out, the unfired rest of its timestamp
        is in.
        """
        return sum(map(len, self._buckets.values()))

    @property
    def pending_events(self) -> int:
        """Number of queued events that are not cancelled (counted on
        demand, like :attr:`queue_size`)."""
        return sum(
            not event.cancelled
            for bucket in self._buckets.values()
            for event in bucket
        )

    # -- execution --------------------------------------------------------------

    def run(
        self,
        max_time: Optional[TimeLike] = None,
        max_events: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> TimeStep:
        """Run the executer until the event queue is empty.

        Optional safety limits stop a runaway simulation:

        * ``max_time``: stop before executing any event past this tick.
        * ``max_events``: stop after executing this many *engine*
          events in this call (resumed runs get a fresh budget).  A
          phase wheel's whole phase is one engine event.
        * ``max_seconds``: stop at the first timestamp boundary after
          this much wall-clock time, counted from this call.

        Returns the final simulation time.  Calling ``run`` (or
        ``run_until``) from a handler is an error: the executer is not
        re-entrant.
        """
        if self._running:
            raise SimulationError(
                "run() called from inside a handler; the executer is "
                "not re-entrant"
            )
        if max_time is None:
            limit_key = _NO_LIMIT
        elif isinstance(max_time, TimeStep):
            limit_key = (max_time.tick << EPSILON_BITS) | max_time.epsilon
        else:
            limit_key = int(max_time) << EPSILON_BITS
        if max_events is not None and max_events < 0:
            raise SimulationError(f"max_events must be >= 0, got {max_events}")
        if max_seconds is not None and max_seconds < 0:
            raise SimulationError(f"max_seconds must be >= 0, got {max_seconds}")
        deadline = (
            _wallclock.monotonic() + max_seconds if max_seconds is not None else None
        )
        self._running = True
        # Pause the cyclic garbage collector for the duration of the run:
        # the hot path churns tuples/lists that never form cycles, and
        # generation-0 scans alone cost several percent of wall time.
        # Reference counting still frees everything promptly.
        gc_was_enabled = _gc.isenabled()
        if gc_was_enabled:
            _gc.disable()
        try:
            self._execute(limit_key, max_events, deadline)
        finally:
            self._running = False
            if gc_was_enabled:
                _gc.enable()
        for observer in self._observers:
            observer(self)
        return self.now

    def run_until(self, end_tick: int) -> int:
        """Execute every pending event strictly before tick ``end_tick``.

        The windowed run primitive for conservative PDES
        (:mod:`repro.partition.runtime`): every epsilon of tick
        ``end_tick - 1`` executes (up to the ``MAX_EPSILON`` sanity
        bound), nothing at or past ``end_tick`` does, and the queue
        state is left resumable -- the next ``run_until`` (or ``run``)
        picks up exactly where this one stopped.  Returns the number of
        events executed by this call.
        """
        if end_tick < 1:
            raise SimulationError(
                f"run_until needs a positive window end, got {end_tick}"
            )
        before = self._executed_events
        self.run(max_time=TimeStep(end_tick - 1, MAX_EPSILON))
        return self._executed_events - before

    def _execute(
        self, limit_key, max_events: Optional[int], deadline: Optional[float]
    ) -> None:
        """The executer loop: drain the queue up to ``limit_key``.

        The head key is peeked, its bucket reversed and drained by
        ``pop()``, so the bucket is always exactly the unfired tail
        (``queue_size`` stays exact, a cancelled later sibling is seen
        when reached); key and bucket are dropped once it is empty.
        The ``max_events`` budget is tested *before* an event is popped
        and counts events executed in this call; the wall clock is
        tested once per timestamp -- one event can be a whole network
        phase (:mod:`repro.core.wheel`), so an event-count cadence
        would overshoot.  With a sanitizer suite attached (see
        :mod:`repro.sanitize`) its ``pre_event_hooks`` run right before
        each handler, clock already advanced.
        """
        suite = self._sanitizer
        hooks = () if suite is None else tuple(suite.pre_event_hooks)
        keys = self._keys
        buckets = self._buckets
        executed = 0
        bucket = None
        try:
            while keys:
                key = keys[0]
                if key > limit_key:
                    break
                bucket = buckets[key]
                bucket.reverse()
                while bucket:
                    if executed == max_events:
                        return
                    event = bucket.pop()
                    if event.cancelled:
                        continue
                    self.tick = key >> EPSILON_BITS
                    self.epsilon = key & _EPS_MASK
                    self._now_key = key
                    for hook in hooks:
                        hook(key, event)
                    event.fired = True
                    event.handler(event)
                    self._executed_events += 1
                    executed += 1
                heapq.heappop(keys)
                del buckets[key]
                if deadline is not None and _wallclock.monotonic() > deadline:
                    return
        finally:
            if bucket:
                # Stopped inside a bucket (budget, raising handler or
                # hook): re-park the unfired tail in scheduling order.
                bucket.reverse()

    def add_run_observer(self, observer: Callable[["Simulator"], None]) -> None:
        """Register a callable invoked after each :meth:`run` completes."""
        self._observers.append(observer)

    def __repr__(self):
        return (
            f"Simulator(now={self.now}, queued={self.queue_size}, "
            f"executed={self._executed_events})"
        )


# Imported at the bottom to avoid a cycle: Component type is only needed
# for annotations above.
from repro.core.component import Component  # noqa: E402  (cycle guard)
