"""Arbiters: choose one winner among competing requests.

Arbiters are one of SuperSim's common microarchitecture building blocks
(§IV-C).  All implement an abstract interface and register with the
object factory so router models can be configured with any of them:

* ``round_robin`` -- classic rotating-priority arbiter; fair in
  isolation but known to produce the parking-lot bandwidth unfairness
  in chains of routers (§IV-B).
* ``age_based`` -- grants the oldest packet (by injection time); fixes
  the parking-lot problem [Abts & Weisser, SC'07].
* ``random`` -- uniformly random among requesters.
* ``fixed_priority`` -- lowest index wins; useful in tests.

A router holds one arbiter per role, serving each output port or output
VC as a *slot* with its own state, one flat list entry per slot.  A
request is ``(index, packet_or_None)``; ``arbitrate(slot, ...)`` returns
the winning index or ``None`` when there are no requests.
``forced(slot, ...)`` records an uncontested grant: it leaves the slot
in the state a one-request ``arbitrate`` would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from repro import factory
from repro.config.spec import Block
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.settings import Settings
    from repro.core.rng import RandomManager

Request = Tuple[int, Optional[Packet]]


class Arbiter:
    """Abstract arbiter: ``slots`` arbitration points, each over a fixed
    number of request indices."""

    def __init__(self, slots: int, size: int):
        if slots < 1 or size < 1:
            raise ValueError(f"arbiter slots and size must be >= 1: {slots}, {size}")
        self.slots = slots
        self.size = size

    def arbitrate(self, slot: int, requests: List[Request],
                  now_tick: int = 0) -> Optional[int]:
        """Pick ``slot``'s winner among ``requests``; None when empty."""
        raise NotImplementedError

    def forced(self, slot: int, index: int, packet: Optional[Packet],
               now_tick: int) -> None:
        """Record a grant at ``slot`` to the only requester ``index``."""
        self.arbitrate(slot, [(index, packet)], now_tick)

    @staticmethod
    def _check(requests: List[Request], size: int) -> None:
        for index, _meta in requests:
            if not 0 <= index < size:
                raise ValueError(f"request index {index} out of range [0, {size})")


#: An arbiter settings block: ``type`` selects the model.
ARBITER = Block(Arbiter, "type", "round_robin")


def create_arbiter(settings: "Settings", slots: int, size: int,
                   random: "RandomManager", label: Callable[[int], str]) -> Arbiter:
    """Build an arbiter from an :data:`ARBITER` block; a random
    arbiter's slot ``s`` draws from the run's ``label(s)`` stream."""
    cls = ARBITER.select(settings)
    if issubclass(cls, RandomArbiter):
        return cls(slots, size, random, label)
    return cls(slots, size)


@factory.register(Arbiter, "round_robin")
class RoundRobinArbiter(Arbiter):
    """Rotating-priority arbiter: the winner becomes lowest priority."""

    SETTINGS = {}

    def __init__(self, slots: int, size: int):
        super().__init__(slots, size)
        self._pointer = [0] * slots

    def arbitrate(self, slot: int, requests: List[Request],
                  now_tick: int = 0) -> Optional[int]:
        if not requests:
            return None
        size = self.size
        if len(requests) == 1:
            # One requester wins; the pointer rotates exactly as the
            # general path would set it.
            best = requests[0][0]
            if not 0 <= best < size:
                self._check(requests, size)
            self._pointer[slot] = (best + 1) % size
            return best
        self._check(requests, size)
        pointer = self._pointer[slot]
        best, best_rank = None, size  # every rank is below size
        for index, _meta in requests:
            rank = (index - pointer) % size
            if rank < best_rank:
                best, best_rank = index, rank
        self._pointer[slot] = (best + 1) % size
        return best

    def forced(self, slot: int, index: int, packet: Optional[Packet],
               now_tick: int) -> None:
        self._pointer[slot] = (index + 1) % self.size


@factory.register(Arbiter, "age_based")
class AgeBasedArbiter(Arbiter):
    """Grants the request whose packet has been in the network longest.

    Requests without a packet are treated as age 0.  Ties break by
    lowest index, keeping the arbiter deterministic.
    """

    SETTINGS = {}

    def arbitrate(self, slot: int, requests: List[Request],
                  now_tick: int = 0) -> Optional[int]:
        if not requests:
            return None
        self._check(requests, self.size)
        best = None
        best_age = -1
        for index, packet in requests:
            age = packet.age(now_tick) if packet is not None else 0
            if age > best_age or (age == best_age and (best is None or index < best)):
                best, best_age = index, age
        return best


@factory.register(Arbiter, "random")
class RandomArbiter(Arbiter):
    """Uniformly random winner.  Each slot draws from its own numpy
    Generator, the run's ``label(slot)`` stream, built on its first draw."""

    SETTINGS = {}

    def __init__(self, slots: int, size: int, random: "RandomManager",
                 label: Callable[[int], str]):
        super().__init__(slots, size)
        self._random = random
        self._label = label
        self._rngs: List[Optional[np.random.Generator]] = [None] * slots

    def generator(self, slot: int) -> np.random.Generator:
        """``slot``'s generator."""
        rng = self._rngs[slot]
        if rng is None:
            rng = self._rngs[slot] = self._random.generator(self._label(slot))
        return rng

    def arbitrate(self, slot: int, requests: List[Request],
                  now_tick: int = 0) -> Optional[int]:
        if not requests:
            return None
        self._check(requests, self.size)
        if len(requests) == 1:
            # A draw over one request returns 0 and leaves the generator
            # as it was, so the slot's stream is not touched.
            return requests[0][0]
        pick = int(self.generator(slot).integers(len(requests)))
        return requests[pick][0]

    def forced(self, slot: int, index: int, packet: Optional[Packet],
               now_tick: int) -> None:
        """An uncontested grant draws nothing."""


@factory.register(Arbiter, "fixed_priority")
class FixedPriorityArbiter(Arbiter):
    """Lowest request index always wins (intentionally unfair)."""

    SETTINGS = {}

    def arbitrate(self, slot: int, requests: List[Request],
                  now_tick: int = 0) -> Optional[int]:
        if not requests:
            return None
        self._check(requests, self.size)
        return min(index for index, _meta in requests)
