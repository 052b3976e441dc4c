"""Message records and the message log.

During the sampling window SuperSim logs network transaction
information to a verbose file format that SSParse later digests
(paper §V).  Here the :class:`MessageLog` observes every interface,
keeps structured in-memory records, and can export the JSON-lines file
format consumed by :mod:`repro.tools.ssparse`.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.net.packet import Packet


class PacketRecord:
    """Timing of one delivered packet."""

    __slots__ = ("send_tick", "receive_tick", "hop_count", "non_minimal")

    def __init__(self, send_tick, receive_tick, hop_count, non_minimal):
        self.send_tick = send_tick
        self.receive_tick = receive_tick
        self.hop_count = hop_count
        self.non_minimal = non_minimal

    @classmethod
    def of(cls, packet: "Packet", receive_tick: int) -> "PacketRecord":
        """The record of ``packet`` whose tail arrived at ``receive_tick``.

        The send tick is the head's injection tick.  ``hop_count`` is
        final: routers bump it as the head leaves them.
        """
        return cls(packet.injection_tick, receive_tick, packet.hop_count,
                   packet.non_minimal)

    @property
    def latency(self) -> int:
        return self.receive_tick - self.send_tick

    def to_dict(self) -> dict:
        return {
            "send": self.send_tick,
            "recv": self.receive_tick,
            "hops": self.hop_count,
            "nonmin": self.non_minimal,
        }


class MessageRecord:
    """A delivered message with workload- and network-level timing."""

    __slots__ = (
        "message_id",
        "application_id",
        "transaction_id",
        "source",
        "destination",
        "num_flits",
        "sampled",
        "created_tick",
        "delivered_tick",
        "packets",
        "minimal_hops",
    )

    def __init__(self, message: Message, minimal_hops: Optional[int] = None):
        self.message_id = message.id
        self.application_id = message.application_id
        self.transaction_id = message.transaction_id
        self.source = message.source
        self.destination = message.destination
        self.num_flits = message.num_flits
        self.sampled = message.sampled
        self.created_tick = message.created_tick
        self.delivered_tick = message.delivered_tick
        self.minimal_hops = minimal_hops
        self.packets = message.packet_records

    @property
    def latency(self) -> int:
        """End-to-end message latency (creation to delivery)."""
        return self.delivered_tick - self.created_tick

    @property
    def network_latency(self) -> int:
        """First flit on the wire to last flit off the wire."""
        start = min(p.send_tick for p in self.packets)
        end = max(p.receive_tick for p in self.packets)
        return end - start

    @property
    def non_minimal(self) -> bool:
        return any(p.non_minimal for p in self.packets)

    def to_dict(self) -> dict:
        return {
            "id": self.message_id,
            "app": self.application_id,
            "txn": self.transaction_id,
            "src": self.source,
            "dst": self.destination,
            "flits": self.num_flits,
            "sampled": self.sampled,
            "created": self.created_tick,
            "delivered": self.delivered_tick,
            "min_hops": self.minimal_hops,
            "packets": [p.to_dict() for p in self.packets],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MessageRecord":
        record = cls.__new__(cls)
        record.message_id = data["id"]
        record.application_id = data["app"]
        record.transaction_id = data["txn"]
        record.source = data["src"]
        record.destination = data["dst"]
        record.num_flits = data["flits"]
        record.sampled = data["sampled"]
        record.created_tick = data["created"]
        record.delivered_tick = data["delivered"]
        record.minimal_hops = data.get("min_hops")
        record.packets = [
            PacketRecord(p["send"], p["recv"], p["hops"], p["nonmin"])
            for p in data["packets"]
        ]
        return record


class MessageLog:
    """Observes a network's interfaces and records every delivery."""

    def __init__(self, network: "Network", compute_minimal_hops: bool = True):
        self.network = network
        self.records: List[MessageRecord] = []
        self._compute_minimal_hops = compute_minimal_hops
        for interface in network.interfaces:
            interface.message_delivered_listeners.append(self._on_delivery)

    def _on_delivery(self, message: Message) -> None:
        minimal = None
        if self._compute_minimal_hops:
            minimal = self.network.minimal_hops(message.source, message.destination)
        self.records.append(MessageRecord(message, minimal))

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def sampled(self) -> List[MessageRecord]:
        return [r for r in self.records if r.sampled]

    def for_application(self, application_id: int) -> List[MessageRecord]:
        return [r for r in self.records if r.application_id == application_id]

    def flits_delivered_between(self, start_tick: int, end_tick: int) -> int:
        """Flits (of any message) delivered inside [start, end)."""
        return sum(
            r.num_flits
            for r in self.records
            if start_tick <= r.delivered_tick < end_tick
        )

    # -- export ---------------------------------------------------------------------

    def write_jsonl(self, path: str) -> int:
        """Write one JSON object per record; returns the record count."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record.to_dict()))
                handle.write("\n")
        return len(self.records)


def read_jsonl(path: str) -> List[MessageRecord]:
    """Load records written by :meth:`MessageLog.write_jsonl`."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(MessageRecord.from_dict(json.loads(line)))
    return records
