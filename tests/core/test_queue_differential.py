"""Differential test: the timestamp-bucket queue against a reference model.

The engine orders events by ``(tick, epsilon)`` and, within one
timestamp, by scheduling order.  The reference below is that sentence
and nothing else: a schedule log in scheduling order whose next entry is
always the first minimal one -- the head of a stable sort.  A seeded
random program drives both through everything the bucket queue has a
special case for: scheduling into existing and new timestamps, cancel
before fire, cancel of a same-timestamp sibling from a handler (the
dead entry keeps its queue slot until it is reached), ``max_events``
budgets that stop inside a bucket and resume, ``run_until`` /
``max_time`` windows, and scheduling while paused.  Fire order,
``executed_events``, ``pending_events`` and ``queue_size`` must agree at
every handler and every pause, with and without EventSan's hooks.
"""

from __future__ import annotations

import random
from itertools import count
from types import SimpleNamespace

import pytest

from repro.core.simtime import MAX_EPSILON
from repro.core.simulator import Simulator
from repro.sanitize import attach_sanitizers


class ReferenceQueue:
    """Stable sort by ``(tick, epsilon)`` of the schedule log."""

    def __init__(self, on_fire):
        self.on_fire = on_fire
        self.log = []  # [(tick, epsilon), ident, cancelled] as scheduled
        self.now = (0, 0)
        self.executed = 0

    def schedule(self, tick, epsilon, ident, keep_handle):
        self.log.append([(tick, epsilon), ident, False])

    def cancel(self, ident):
        next(e for e in self.log if e[1] == ident)[2] = True

    def run(self, limit=None, max_events=None):
        fired = 0
        while self.log and fired != max_events:
            entry = min(self.log, key=lambda e: e[0])  # first minimal
            if limit is not None and entry[0] > limit:
                break
            self.log.remove(entry)
            if not entry[2]:
                fired += 1
                self.now = entry[0]
                self.on_fire(entry[1])
                self.executed += 1

    def counters(self):
        """(executed, pending, queue size)"""
        return (self.executed, sum(not e[2] for e in self.log), len(self.log))


class EngineQueue:
    """The same interface over a real :class:`Simulator`."""

    def __init__(self, on_fire):
        self.on_fire = on_fire
        self.simulator = Simulator()
        self.handles = {}

    def _fire(self, event):
        self.handles.pop(event.data, None)
        self.on_fire(event.data)

    def schedule(self, tick, epsilon, ident, keep_handle):
        event = self.simulator.call_at(tick, self._fire, ident, epsilon)
        if keep_handle:
            self.handles[ident] = event

    def cancel(self, ident):
        self.handles.pop(ident).cancel()

    def run(self, limit=None, max_events=None):
        if limit is not None and limit[1] == MAX_EPSILON:
            self.simulator.run_until(limit[0] + 1)
        elif limit is not None:
            assert limit[1] == 0
            self.simulator.run(max_time=limit[0], max_events=max_events)
        else:
            self.simulator.run(max_events=max_events)

    @property
    def now(self):
        return (self.simulator.tick, self.simulator.epsilon)

    def counters(self):
        simulator = self.simulator
        return (
            simulator.executed_events,
            simulator.pending_events,
            simulator.queue_size,
        )


def run_program(make_queue, seed):
    """Drive one queue through the seeded program; return its trace.

    Every random draw comes from one generator consumed in execution
    order, so two queues see the same program exactly as long as they
    fire the same events in the same order -- and the traces differ
    from the first divergence on otherwise.
    """
    rng = random.Random(seed)
    trace = []
    idents = count()
    cancellable = {}  # ident -> timestamp; unfired, uncancelled, handle kept

    def spawn(how, tick, epsilon):
        ident = next(idents)
        keep_handle = rng.random() < 0.5
        how(tick, epsilon, ident, keep_handle)
        if keep_handle:
            cancellable[ident] = (tick, epsilon)

    def cancel_one(prefer):
        siblings = [i for i, at in cancellable.items() if at == prefer]
        victim = rng.choice(siblings or list(cancellable))
        trace.append(("cancel", victim, bool(siblings)))
        del cancellable[victim]
        queue.cancel(victim)

    def on_fire(ident):
        tick, epsilon = queue.now
        cancellable.pop(ident, None)
        trace.append(("fire", ident, tick, epsilon))
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            ahead = rng.randrange(3)
            if ahead:
                spawn(queue.schedule, tick + ahead, rng.randrange(3))
            else:
                spawn(queue.schedule, tick, epsilon + 1 + rng.randrange(2))
        if cancellable and rng.random() < 0.4:
            cancel_one(prefer=(tick, epsilon))
        trace.append(("in handler",) + queue.counters())

    queue = make_queue(on_fire)
    for _ in range(12):
        spawn(queue.schedule, 1 + rng.randrange(3), rng.randrange(3))
    for _ in range(40):
        tick = queue.now[0]
        mode = rng.randrange(4)
        if mode == 0:
            queue.run(max_events=rng.randrange(6))
        elif mode == 1:
            queue.run(limit=(tick + rng.randrange(3), MAX_EPSILON))
        elif mode == 2:
            queue.run(limit=(tick + 1 + rng.randrange(2), 0),
                      max_events=rng.choice((None, 4)))
        else:
            queue.run(max_events=1)
        trace.append(("paused", queue.now) + queue.counters())
        tick, epsilon = queue.now
        for _ in range(rng.randrange(3)):
            ahead = rng.randrange(3)
            if ahead:
                spawn(queue.schedule, tick + ahead, rng.randrange(3))
            else:
                spawn(queue.schedule, tick, epsilon + 1 + rng.randrange(2))
        if cancellable and rng.random() < 0.3:
            cancel_one(prefer=None)
        trace.append(("resumed", queue.now) + queue.counters())
    queue.run()
    trace.append(("drained", queue.now) + queue.counters())
    return trace, queue


@pytest.mark.parametrize("sanitized", [False, True], ids=["plain", "eventsan"])
def test_bucket_queue_matches_reference_model(sanitized):
    seen = {"sibling cancel": 0, "stop inside a bucket": 0,
            "dead entries at a pause": 0}
    for seed in range(60):
        expected, _ = run_program(ReferenceQueue, seed)

        suites = []

        def make_engine(on_fire):
            engine = EngineQueue(on_fire)
            if sanitized:
                suites.append(attach_sanitizers(
                    SimpleNamespace(simulator=engine.simulator), "event"))
            return engine

        try:
            actual, engine = run_program(make_engine, seed)
        finally:
            for suite in suites:
                suite.detach()
        assert actual == expected, f"seed {seed}"
        assert engine.counters()[1:] == (0, 0), f"seed {seed}"

        fires = [step for step in expected if step[0] in ("fire", "paused")]
        seen["stop inside a bucket"] += sum(
            before[0] == "fire" and pause[0] == "paused" and after[0] == "fire"
            and before[2:] == after[2:]
            for before, pause, after in zip(fires, fires[1:], fires[2:])
        )
        seen["sibling cancel"] += sum(
            step[0] == "cancel" and step[2] for step in expected)
        seen["dead entries at a pause"] += sum(
            step[0] == "paused" and step[3] < step[4] for step in expected)
    assert all(seen.values()), f"program never exercised: {seen}"
