"""Packets: the unit of routing.

A packet carries a contiguous run of flits from one terminal to another.
Routing state (hop count, the injection VC, an algorithm's one
``routing_state`` value) lives on the packet, because in a wormhole
router the head flit makes decisions that all body flits follow.  The
packet keeps no flit list: :meth:`Packet.flit` builds a flit when the
source interface injects it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.net.flit import Flit

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message


class Packet:
    """A routable sequence of flits belonging to a message.

    Attributes:
        message: owning message.
        id: index of this packet within its message.
        global_id: unique within its simulation, drawn from the network's
            ``packet_ids``; DOR VC rotation and the folded-Clos up-port
            hash read it.
        num_flits: the packet's length in flits.
        hop_count: number of routers the head has left so far.
        non_minimal: set by adaptive routing algorithms when the packet
            took a non-minimal path (used by phantom-congestion analyses).
        intermediate: Valiant-style intermediate destination, if any.
        routing_state: one immutable, hashable value a routing engine
            carries across hops (the torus dateline's ``(dim, start)``,
            the two-phase phase), ``None`` until an engine sets it.  An
            engine replaces the value and never mutates it: the lint
            dependency trace shares it between packet copies.
        injection_tick: when the head flit entered the network.
        injection_vc: the VC the source interface injects the packet on.
    """

    __slots__ = (
        "message",
        "id",
        "global_id",
        "num_flits",
        "hop_count",
        "non_minimal",
        "intermediate",
        "routing_state",
        "injection_tick",
        "injection_vc",
    )

    def __init__(
        self, message: "Message", packet_id: int, global_id: int, num_flits: int
    ):
        if num_flits < 1:
            raise ValueError(f"packet must have at least 1 flit, got {num_flits}")
        self.message = message
        self.id = packet_id
        self.global_id = global_id
        self.num_flits = num_flits
        self.hop_count = 0
        self.non_minimal = False
        self.intermediate: Optional[int] = None
        self.routing_state: Any = None
        self.injection_tick: Optional[int] = None
        self.injection_vc = 0

    def flit(self, index: int) -> Flit:
        """Build flit ``index`` of this packet (0 is the head)."""
        return Flit(self, index, index == 0, index == self.num_flits - 1)

    # -- convenience ---------------------------------------------------------

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
