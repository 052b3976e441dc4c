"""Flits: flow control digits.

A flit is the smallest unit of resource allocation in a router (paper
§I).  Routers manage buffering, data flow, and resource scheduling on
flits; a packet is a sequence of flits (one head, zero or more body, one
tail -- a single-flit packet is both head and tail).

A :class:`Flit` is a plain ``__slots__`` record: the source interface
builds each one through :meth:`~repro.net.packet.Packet.flit` as it
injects it, routers rewrite ``vc`` hop by hop, and the object dies once
the destination interface has consumed it.  Timing lives on the packet
(``injection_tick``) and in the delivered
:class:`~repro.stats.records.PacketRecord`, not on the flit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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
    """

    __slots__ = ("packet", "index", "head", "tail", "vc")

    def __init__(self, packet: "Packet", index: int, head: bool, tail: bool):
        self.packet = packet
        self.index = index
        self.head = head
        self.tail = tail
        self.vc = 0

    def __repr__(self):
        kind = "H" if self.head else ("T" if self.tail else "B")
        if self.head and self.tail:
            kind = "HT"
        return f"Flit(pkt={self.packet.global_id}, i={self.index}, {kind}, vc={self.vc})"
