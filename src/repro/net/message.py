"""Messages: the unit of workload traffic.

Applications send messages between terminals.  The source interface
segments a message into one or more packets (bounded by the maximum
packet size), and the destination interface reassembles and delivers it.
SuperSim additionally groups messages into *transactions* for
request/response style workloads; we carry a transaction id through for
the same purpose.

A message in flight is three kinds of object: the message, its packets
(each pointing back at it) and the flits on the wire.  The message does
not list its packets; the destination collects one
:class:`~repro.stats.records.PacketRecord` per packet as its tail
arrives, so ``packet_records`` is ``None`` until delivery begins.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.stats.records import PacketRecord


class Message:
    """A variable-length payload from one terminal to another.

    Attributes:
        id: unique within its simulation; terminals draw it from the
            network's ``message_ids``.
        application_id: index of the generating application.
        source / destination: terminal ids.
        num_flits: total payload size in flits.
        transaction_id: groups request/response messages; defaults to
            the message's own id.
        sampled: True when generated inside the workload's sampling
            window; only sampled messages enter the statistics.
        created_tick / delivered_tick: workload-level timestamps.
        num_packets: set by :meth:`packetize` (0 before).
        packet_records: the delivered packets' records in packet order,
            built by the destination interface; ``None`` before the
            first tail arrives.
    """

    __slots__ = (
        "id",
        "application_id",
        "source",
        "destination",
        "num_flits",
        "transaction_id",
        "sampled",
        "created_tick",
        "delivered_tick",
        "num_packets",
        "packet_records",
        "opaque",
    )

    def __init__(
        self,
        message_id: int,
        application_id: int,
        source: int,
        destination: int,
        num_flits: int,
        transaction_id: Optional[int] = None,
    ):
        if num_flits < 1:
            raise ValueError(f"message must have at least 1 flit, got {num_flits}")
        if source < 0 or destination < 0:
            raise ValueError("terminal ids must be non-negative")
        self.id = message_id
        self.application_id = application_id
        self.source = source
        self.destination = destination
        self.num_flits = num_flits
        self.transaction_id = transaction_id if transaction_id is not None else self.id
        self.sampled = False
        self.created_tick: Optional[int] = None
        self.delivered_tick: Optional[int] = None
        self.num_packets = 0
        self.packet_records: Optional[List[Optional["PacketRecord"]]] = None
        self.opaque = None  # free slot for application bookkeeping

    def packetize(
        self, max_packet_flits: int, packet_ids: Iterator[int]
    ) -> List[Packet]:
        """Split the message into packets of at most ``max_packet_flits``,
        numbering them from ``packet_ids`` (the network's sequence)."""
        if max_packet_flits < 1:
            raise ValueError(f"max packet size must be >= 1, got {max_packet_flits}")
        if self.num_packets:
            raise RuntimeError(f"message {self.id} already packetized")
        num_flits = self.num_flits
        packets = [
            Packet(self, packet_id, next(packet_ids),
                   min(max_packet_flits, num_flits - start))
            for packet_id, start in enumerate(range(0, num_flits, max_packet_flits))
        ]
        self.num_packets = len(packets)
        return packets

    def latency(self) -> Optional[int]:
        """End-to-end message latency in ticks, or None if undelivered."""
        if self.delivered_tick is None or self.created_tick is None:
            return None
        return self.delivered_tick - self.created_tick

    def __repr__(self):
        return (
            f"Message({self.id}, app={self.application_id}, "
            f"{self.source}->{self.destination}, {self.num_flits}f)"
        )
