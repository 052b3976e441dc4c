"""Packets: the unit of routing.

A packet carries a contiguous run of flits from one terminal to another.
Routing state (the per-hop output decision, hop counts, algorithm
scratch space) lives on the packet, because in a wormhole router the
head flit makes decisions that all body flits follow.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from repro.net.flit import Flit

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message

_global_packet_ids = itertools.count()


@contextlib.contextmanager
def preserve_packet_ids() -> Iterator[None]:
    """Restore the process-global packet *and* message id counters on exit.

    Packet ``global_id`` feeds routing decisions (DOR VC rotation, the
    folded-Clos up-port hash), so two same-seed simulations in one
    process only behave identically when each starts from the same
    counter position.  Every caller that runs a throwaway or auxiliary
    simulation (lint network construction, benchmark rounds, golden
    digest runs, shard workers) wraps it in this context manager so the
    counters come back to where they started.
    """
    global _global_packet_ids
    from repro.net import message as message_mod

    saved_packet = next(_global_packet_ids)
    saved_message = next(message_mod._global_message_ids)
    _global_packet_ids = itertools.count(saved_packet)
    message_mod._global_message_ids = itertools.count(saved_message)
    try:
        yield
    finally:
        _global_packet_ids = itertools.count(saved_packet)
        message_mod._global_message_ids = itertools.count(saved_message)


class Packet:
    """A routable sequence of flits belonging to a message.

    Attributes:
        message: owning message.
        id: index of this packet within its message.
        global_id: unique id across the whole simulation (debug aid).
        flits: the flits of this packet, index order.
        hop_count: number of routers traversed so far.
        non_minimal: set by adaptive routing algorithms when the packet
            took a non-minimal path (used by phantom-congestion analyses).
        intermediate: Valiant-style intermediate destination, if any.
        routing_state: free-form scratch dict for routing algorithms.
        injection_tick: when the head flit entered the network.
    """

    __slots__ = (
        "message",
        "id",
        "global_id",
        "flits",
        "hop_count",
        "non_minimal",
        "intermediate",
        "routing_state",
        "injection_tick",
    )

    def __init__(self, message: "Message", packet_id: int, num_flits: int):
        if num_flits < 1:
            raise ValueError(f"packet must have at least 1 flit, got {num_flits}")
        self.message = message
        self.id = packet_id
        self.global_id = next(_global_packet_ids)
        last = num_flits - 1
        self.flits: List[Flit] = [
            Flit(self, i, i == 0, i == last) for i in range(num_flits)
        ]
        self.hop_count = 0
        self.non_minimal = False
        self.intermediate: Optional[int] = None
        self.routing_state: Dict[str, Any] = {}
        self.injection_tick: Optional[int] = None

    # -- convenience ---------------------------------------------------------

    @property
    def num_flits(self) -> int:
        return len(self.flits)

    @property
    def head_flit(self) -> Flit:
        return self.flits[0]

    @property
    def tail_flit(self) -> Flit:
        return self.flits[-1]

    @property
    def source(self) -> int:
        return self.message.source

    @property
    def destination(self) -> int:
        return self.message.destination

    def age(self, now_tick: int) -> int:
        """Ticks since injection; used by age-based arbitration."""
        if self.injection_tick is None:
            return 0
        return now_tick - self.injection_tick

    def __repr__(self):
        return (
            f"Packet(g{self.global_id}, msg={self.message.id}, "
            f"{self.source}->{self.destination}, {self.num_flits}f)"
        )
