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

A request is ``(index, packet_or_None)``; ``arbitrate`` returns the
winning index or ``None`` when there are no requests.  ``forced``
records an uncontested grant: it leaves the arbiter in the state a
one-request ``arbitrate`` would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro import factory
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.settings import Settings
    from repro.core.rng import RandomManager

Request = Tuple[int, Optional[Packet]]


class Arbiter:
    """Abstract arbiter over a fixed number of request indices."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"arbiter size must be >= 1, got {size}")
        self.size = size

    def arbitrate(self, requests: List[Request], now_tick: int = 0) -> Optional[int]:
        """Pick a winner among ``requests``; None when empty."""
        raise NotImplementedError

    def forced(self, index: int, packet: Optional[Packet], now_tick: int) -> None:
        """Record a grant to the only requester ``index``."""
        self.arbitrate([(index, packet)], now_tick)

    @staticmethod
    def _check(requests: List[Request], size: int) -> None:
        for index, _meta in requests:
            if not 0 <= index < size:
                raise ValueError(f"request index {index} out of range [0, {size})")


def create_arbiter(
    settings: "Settings", size: int, random: "RandomManager", label: str
) -> Arbiter:
    """Build an arbiter from a settings block with a ``type`` key; a
    random arbiter draws from the run's ``label`` stream."""
    kind = settings.get_str("type", "round_robin")
    if kind == "random":
        return factory.create(Arbiter, kind, size, random.generator(label))
    return factory.create(Arbiter, kind, size)


@factory.register(Arbiter, "round_robin")
class RoundRobinArbiter(Arbiter):
    """Rotating-priority arbiter: the winner becomes lowest priority."""

    def __init__(self, size: int):
        super().__init__(size)
        self._pointer = 0

    def arbitrate(self, requests: List[Request], now_tick: int = 0) -> Optional[int]:
        if not requests:
            return None
        if len(requests) == 1:
            # One requester wins; the pointer rotates exactly as the
            # general path would set it.
            best = requests[0][0]
            if not 0 <= best < self.size:
                self._check(requests, self.size)
            self._pointer = (best + 1) % self.size
            return best
        self._check(requests, self.size)
        pointer = self._pointer
        size = self.size
        best = None
        best_rank = None
        for index, _meta in requests:
            rank = (index - pointer) % size
            if best_rank is None or rank < best_rank:
                best, best_rank = index, rank
        self._pointer = (best + 1) % size
        return best

    def forced(self, index: int, packet: Optional[Packet], now_tick: int) -> None:
        self._pointer = (index + 1) % self.size


@factory.register(Arbiter, "age_based")
class AgeBasedArbiter(Arbiter):
    """Grants the request whose packet has been in the network longest.

    Requests without a packet are treated as age 0.  Ties break by
    lowest index, keeping the arbiter deterministic.
    """

    def arbitrate(self, requests: List[Request], now_tick: int = 0) -> Optional[int]:
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
    """Uniformly random winner, drawn from the given numpy Generator."""

    def __init__(self, size: int, rng: np.random.Generator):
        super().__init__(size)
        self._rng = rng

    def arbitrate(self, requests: List[Request], now_tick: int = 0) -> Optional[int]:
        if not requests:
            return None
        self._check(requests, self.size)
        pick = int(self._rng.integers(len(requests)))
        return requests[pick][0]


@factory.register(Arbiter, "fixed_priority")
class FixedPriorityArbiter(Arbiter):
    """Lowest request index always wins (intentionally unfair)."""

    def arbitrate(self, requests: List[Request], now_tick: int = 0) -> Optional[int]:
        if not requests:
            return None
        self._check(requests, self.size)
        return min(index for index, _meta in requests)
