"""Flits: flow control digits.

A flit is the smallest unit of resource allocation in a router (paper
§I).  Routers manage buffering, data flow, and resource scheduling on
flits; a packet is a sequence of flits (one head, zero or more body, one
tail -- a single-flit packet is both head and tail).

A :class:`Flit` is a plain ``__slots__`` record: its
:class:`~repro.net.packet.Packet` builds one object per flit when the
message is packetized, routers rewrite ``vc`` hop by hop, and the
objects die with their message.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet


class Flit:
    """One flow control digit of a packet.

    Attributes:
        packet: the owning packet.
        index: position of this flit within the packet (0 = head).
        head: True for the first flit of the packet.
        tail: True for the last flit of the packet.
        vc: the virtual channel this flit currently occupies.  Rewritten
            hop by hop as the packet claims VCs.
        send_tick: tick at which this flit first entered the network
            (set by the source interface).
        receive_tick: tick at which this flit arrived at the destination
            interface.
    """

    __slots__ = (
        "packet", "index", "head", "tail", "vc", "send_tick", "receive_tick"
    )

    def __init__(self, packet: "Packet", index: int, head: bool, tail: bool):
        self.packet = packet
        self.index = index
        self.head = head
        self.tail = tail
        self.vc = 0
        self.send_tick: Optional[int] = None
        self.receive_tick: Optional[int] = None

    def __repr__(self):
        kind = "H" if self.head else ("T" if self.tail else "B")
        if self.head and self.tail:
            kind = "HT"
        return f"Flit(pkt={self.packet.global_id}, i={self.index}, {kind}, vc={self.vc})"
