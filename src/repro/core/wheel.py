"""Per-tick phase wheels (paper §III-B, Fig. 2).

Epsilons order *phases* inside a tick: everything that lands at
``(T, EPS_DELIVER)`` is visible to every step at ``(T, EPS_STEP)``.  A
:class:`PhaseWheel` runs one such phase for the whole network from one
engine event per busy tick, instead of one event per busy link or awake
router: ``tick -> registrants, in registration order``, at an epsilon
fixed at construction.

Order.  A registrant enters a tick's list at the very program point
where its own event used to enter the engine's ``(tick, epsilon)``
bucket, and both are FIFO, so registrants run in the same total order
as one event each would -- which is why message logs are byte-identical
to the per-event form (``tests/net/test_wheel_differential.py`` keeps
that form as its reference).  A tick's list is popped *before* it
fires, so registering at or before the current ``(tick, epsilon)``
finds no list, reaches ``call_at`` and raises the engine's causality
:class:`~repro.core.simulator.SimulationError` unchanged.

Wheels belong to a simulator (:meth:`Simulator.wheel`); components hold
a plain reference to theirs and call ``add``.
"""

from __future__ import annotations


class PhaseWheel:
    """One phase of every tick; registrants are ``handler(event)``
    callables, called with the phase's own engine event."""

    __slots__ = ("simulator", "epsilon", "_slots")

    def __init__(self, simulator, epsilon: int):
        self.simulator = simulator
        self.epsilon = epsilon
        self._slots = {}

    def add(self, tick: int, registrant) -> None:
        """Run ``registrant`` in this phase of ``tick``."""
        slots = self._slots
        slot = slots.get(tick)
        if slot is None:
            self.simulator.call_at(tick, self._fire, None, self.epsilon)
            slot = slots[tick] = []
        slot.append(registrant)

    def _fire(self, event) -> None:
        self._drain(self._slots.pop(event.tick), event)

    def _drain(self, registrants, event) -> None:
        for handler in registrants:
            handler(event)
