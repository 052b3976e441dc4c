"""Proxy channel endpoints and cross-shard object reconstruction.

The sharded PDES runtime (:mod:`repro.partition.runtime`) gives every
worker the *full* network object graph but only executes the components
of its own shard.  Channels cut by the partition get asymmetric
treatment:

* On the **egress** side (the worker owning the channel's source
  device) the channel instance is retargeted to a proxy subclass whose
  ``send_flit`` / ``send_credit`` replicate the real channel's pacing
  state *exactly* -- routers consult ``can_send()`` /
  ``next_send_tick()`` / ``_next_free_tick`` when scheduling, so the
  proxy must leave the same fingerprints -- but serialize the send as a
  plain-tuple record instead of delivering locally.
* On the **ingress** side (the worker owning the sink device) records
  are put, between synchronization windows, onto the channel's own
  in-flight FIFO with their due tick, and the channel is registered on
  the landing wheel like any sending channel; they land through
  ``_deliver_item`` at ``(due_tick, EPS_DELIVER)``.  Sanitizer shims and
  DetSan's delivery digest therefore observe a sharded delivery exactly
  as they observe a single-process one.

Flits reference packets reference messages, and none of those objects
exist on the sink side of a cut, so the head-flit record carries a full
snapshot of the message- and packet-level state and the
:class:`ShardRegistry` rebuilds real :class:`~repro.net.message.Message`
/ :class:`~repro.net.packet.Packet` objects under the ids the record
carries; each landing flit is built by
:meth:`~repro.net.packet.Packet.flit`, as at a source interface.
Wormhole routing guarantees the head flit crosses a cut before the
packet's body flits, so body/tail records bind by ``global_id`` lookup
alone.

Record wire format (plain tuples; picklable for process workers):

* flit:   ``(0, cut_index, due, vc, gid, index, head|None)``
* credit: ``(1, cut_index, due, vc)``

where the last slot is ``None`` on body and tail flits -- routers change
packet state only as the head leaves them -- and on head flits is::

    (msg_id, app_id, source, destination, msg_flits, txn_id, sampled,
     created_tick, num_packets, packet_id, pkt_flits, injection_tick,
     hop_count, non_minimal, intermediate, routing_state)
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.net.channel import Channel, ChannelError, CreditChannel
from repro.net.credit import Credit
from repro.net.flit import Flit
from repro.net.interface import Interface
from repro.net.message import Message
from repro.net.packet import Packet

#: record[0] discriminator values.
FLIT_RECORD = 0
CREDIT_RECORD = 1

Record = Tuple[Any, ...]


class ProxyError(RuntimeError):
    """Raised on cross-shard reconstruction inconsistencies."""


# -- egress ------------------------------------------------------------------


class _ProxyFlitChannel(Channel):
    """Egress side of a cut flit channel.

    Replicates :meth:`Channel.send_flit`'s observable state transitions
    (sink check, overdrive check, ``_next_free_tick`` pacing,
    ``flits_carried``) and appends a record to the worker's outbox
    instead of scheduling a local delivery.  The in-flight FIFO stays
    empty: the wire is modeled by the record stream.
    """

    def send_flit(self, flit: Flit) -> None:
        if self._sink is None:
            raise ChannelError(f"{self.full_name}: no sink connected")
        now = self.simulator.tick
        if now < self._next_free_tick:
            raise ChannelError(
                f"{self.full_name}: overdriven -- busy until "
                f"{self._next_free_tick}, send attempted at {now}"
            )
        self._next_free_tick = now + self.period
        self.flits_carried += 1
        due = now + self.latency
        packet = flit.packet
        head: Any = None
        if flit.head:  # snapshot message+packet state
            self._shard_registry.note_egress(packet)
            message = packet.message
            head = (
                message.id,
                message.application_id,
                message.source,
                message.destination,
                message.num_flits,
                message.transaction_id,
                message.sampled,
                message.created_tick,
                message.num_packets,
                packet.id,
                packet.num_flits,
                packet.injection_tick,
                packet.hop_count,
                packet.non_minimal,
                packet.intermediate,
                packet.routing_state,
            )
        self._shard_outbox.append((
            FLIT_RECORD,
            self._cut_index,
            due,
            flit.vc,
            packet.global_id,
            flit.index,
            head,
        ))


class _ProxyCreditChannel(CreditChannel):
    """Egress side of a cut credit channel (no pacing to replicate)."""

    def send_credit(self, credit: Credit) -> None:
        if self._sink is None:
            raise ChannelError(f"{self.full_name}: no sink connected")
        self.credits_carried += 1
        due = self.simulator.tick + self.latency
        self._shard_outbox.append((
            CREDIT_RECORD,
            self._cut_index,
            due,
            credit.vc,
        ))


def make_egress(
    channel, cut_index: int, outbox: List[Record], registry: "ShardRegistry"
) -> None:
    """Retarget ``channel`` (in place) to its egress proxy subclass."""
    if isinstance(channel, Channel):
        channel.__class__ = _ProxyFlitChannel
    elif isinstance(channel, CreditChannel):
        channel.__class__ = _ProxyCreditChannel
    else:
        raise ProxyError(f"cannot proxy {channel!r}: not a channel")
    channel._cut_index = cut_index
    channel._shard_outbox = outbox
    channel._shard_registry = registry


# -- cross-shard object registry ---------------------------------------------


class ShardRegistry:
    """Per-worker map of messages/packets that crossed a shard cut.

    Entries come from two sides: :meth:`note_egress` registers locally
    created objects whose head flit left the shard (they may re-enter
    later), and :meth:`materialize_flit` registers reconstructions of
    remotely created objects.  Either way the maps are the single
    source of truth: a flit re-entering the shard binds to the same
    objects it left.

    The coordinator broadcasts delivered message ids at every barrier;
    :meth:`release_delivered` drops the entries of those messages.
    ``messages`` maps a message id to the first of its packets
    registered here: the message is that packet's ``message``, and its
    packets' global ids run on from ``global_id - id`` (packetizing
    draws them in one run).
    """

    def __init__(self) -> None:
        self.messages: Dict[int, Packet] = {}
        self.packets: Dict[int, Packet] = {}

    # -- egress side -------------------------------------------------------

    def note_egress(self, packet: Packet) -> None:
        self.messages.setdefault(packet.message.id, packet)
        self.packets.setdefault(packet.global_id, packet)

    # -- ingress side ------------------------------------------------------

    def materialize_flit(self, record: Record) -> Flit:
        """Rebuild (or re-find) the flit a cut-channel record describes."""
        _, _, _, vc, gid, index, head = record
        packet = self.packets.get(gid)
        if packet is None:
            if head is None or index != 0:
                raise ProxyError(
                    f"non-head flit of unknown packet g{gid} crossed the "
                    f"cut before its head (wormhole order violated)"
                )
            packet = self._materialize_packet(gid, head)
        elif head is not None:
            # Head re-entry: the packet was routed through other shards
            # since it left; refresh the head-driven state it
            # accumulated there (routers change packet state only as
            # the head leaves them).
            (_, _, _, _, _, _, _, _, _, _, _, injection_tick,
             hop_count, non_minimal, intermediate, routing_state) = head
            packet.injection_tick = injection_tick
            packet.hop_count = hop_count
            packet.non_minimal = non_minimal
            packet.intermediate = intermediate
            packet.routing_state = routing_state
        flit = packet.flit(index)
        flit.vc = vc
        return flit

    def _materialize_packet(self, gid: int, head: Tuple[Any, ...]) -> Packet:
        (msg_id, app_id, source, destination, msg_flits, txn_id, sampled,
         created_tick, num_packets, packet_id, pkt_flits, injection_tick,
         hop_count, non_minimal, intermediate, routing_state) = head
        known = self.messages.get(msg_id)
        if known is not None:
            message = known.message
        else:
            message = Message(msg_id, app_id, source, destination, msg_flits,
                              transaction_id=txn_id)
            message.sampled = sampled
            message.created_tick = created_tick
            message.num_packets = num_packets
        packet = Packet(message, packet_id, gid, pkt_flits)
        packet.injection_tick = injection_tick
        packet.hop_count = hop_count
        packet.non_minimal = non_minimal
        packet.intermediate = intermediate
        packet.routing_state = routing_state
        self.messages.setdefault(msg_id, packet)
        self.packets[gid] = packet
        return packet

    # -- lifecycle ---------------------------------------------------------

    def release_delivered(self, message_ids) -> None:
        """Drop registered state for messages delivered network-wide."""
        for msg_id in message_ids:
            packet = self.messages.pop(msg_id, None)
            if packet is None:
                continue
            first = packet.global_id - packet.id
            for gid in range(first, first + packet.message.num_packets):
                self.packets.pop(gid, None)

    @property
    def outstanding(self) -> int:
        """Registered messages not yet released (leak check input)."""
        return len(self.messages)


# -- phantom terminals -------------------------------------------------------


def make_phantom_interface(interface: Interface) -> None:
    """Replace ``interface.send_message`` with an id-consuming no-op.

    Every worker runs *all* terminals -- including those of foreign
    shards -- so the shared per-application RNG streams (traffic
    destination, message size) and the network's message and packet id
    sequences advance in exactly the creation order of the
    single-process run.  Terminals attached to foreign interfaces must
    therefore packetize (drawing packet ids) but must not enqueue, wake
    the injection pipeline, or touch the local network.
    """

    def phantom_send_message(message: Message) -> None:
        if message.created_tick is None:
            message.created_tick = interface.simulator.tick
        interface.messages_sent += 1
        message.packetize(interface.max_packet_size, interface.packet_ids)

    interface.send_message = phantom_send_message
    interface.shard_phantom = True
