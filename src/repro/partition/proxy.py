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
/ :class:`~repro.net.packet.Packet` objects and their flits.
Reconstruction goes through ``__new__`` -- the id counters were
already advanced by the phantom-terminal replay (see
:func:`make_phantom_interface`), so consuming them again would desync
every subsequent id.  Wormhole routing guarantees the head flit crosses
a cut before the packet's body flits, so body/tail records bind by
``global_id`` lookup alone.

Record wire format (plain tuples; picklable for process workers):

* flit:   ``(0, cut_index, due, vc, send_tick, gid, index, head|None)``
* credit: ``(1, cut_index, due, vc)``

where the last slot is ``None`` on body flits, the packet's current
``hop_count`` (an int) on tail flits -- routers bump it as the tail
leaves them, after the head already crossed -- and on head flits::

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
                dict(packet.routing_state),
            )
        elif flit.tail:
            # Tail: routers bump ``hop_count`` as the tail leaves them,
            # i.e. *after* the head (and its snapshot) already crossed,
            # so the tail carries the post-increment count for the
            # sink-side copy to converge with the shared single-process
            # object.  Nothing else moves between head and tail egress
            # -- routing decisions (and their ``routing_state`` /
            # ``non_minimal`` mutations) all happen at head time -- and
            # the sink applies the count at materialization, always
            # before any sink-side router sees this tail.
            head = packet.hop_count
        self._shard_outbox.append((
            FLIT_RECORD,
            self._cut_index,
            due,
            flit.vc,
            flit.send_tick,
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
    """

    def __init__(self) -> None:
        self.messages: Dict[int, Message] = {}
        self.packets: Dict[int, Packet] = {}

    # -- egress side -------------------------------------------------------

    def note_egress(self, packet: Packet) -> None:
        message = packet.message
        self.messages.setdefault(message.id, message)
        self.packets.setdefault(packet.global_id, packet)

    # -- ingress side ------------------------------------------------------

    def materialize_flit(self, record: Record) -> Flit:
        """Rebuild (or re-find) the flit a cut-channel record describes."""
        _, _, _, vc, send_tick, gid, index, head = record
        packet = self.packets.get(gid)
        if packet is None:
            if not isinstance(head, tuple) or index != 0:
                raise ProxyError(
                    f"non-head flit of unknown packet g{gid} crossed the "
                    f"cut before its head (wormhole order violated)"
                )
            packet = self._materialize_packet(gid, head)
        elif isinstance(head, tuple):
            # Head re-entry: the packet was routed through other shards
            # since it left; refresh the head-driven state it
            # accumulated there (routing decisions happen at head
            # time).  ``hop_count`` is deliberately NOT taken from a
            # head snapshot: it is tail-driven, so the local copy can
            # be *ahead* of the remote one while the tail still trails
            # through local routers; the authoritative count rides the
            # tail records, which follow the head through every cut.
            (_, _, _, _, _, _, _, _, _, _, _, injection_tick,
             _, non_minimal, intermediate, routing_state) = head
            packet.injection_tick = injection_tick
            packet.non_minimal = non_minimal
            packet.intermediate = intermediate
            packet.routing_state = dict(routing_state)
        elif head is not None:
            # Tail: apply the egress side's post-increment hop count
            # (see the proxy's ``send_flit``); sink-side increments for
            # this packet can only happen after this tail lands.
            packet.hop_count = head
        flit = packet.flits[index]
        flit.vc = vc
        flit.send_tick = send_tick
        return flit

    def _materialize_packet(self, gid: int, head: Tuple[Any, ...]) -> Packet:
        (msg_id, app_id, source, destination, msg_flits, txn_id, sampled,
         created_tick, num_packets, packet_id, pkt_flits, injection_tick,
         hop_count, non_minimal, intermediate, routing_state) = head
        message = self.messages.get(msg_id)
        if message is None:
            # Remotely created message: rebuild without consuming the
            # message id counter (phantom replay already advanced it).
            message = Message.__new__(Message)
            message.id = msg_id
            message.application_id = app_id
            message.source = source
            message.destination = destination
            message.num_flits = msg_flits
            message.transaction_id = txn_id
            message.sampled = sampled
            message.created_tick = created_tick
            message.delivered_tick = None
            # Pre-sized so Message.num_packets (and the interface's
            # packets-remaining accounting) is correct before every
            # packet has crossed.
            message.packets = [None] * num_packets
            message.opaque = None
            self.messages[msg_id] = message
        existing = message.packets[packet_id]
        if existing is not None:
            # Locally created message whose packet re-enters without a
            # prior egress note cannot happen; this is the same real
            # packet, registered under its gid for future lookups.
            self.packets[gid] = existing
            return existing
        packet = Packet.__new__(Packet)
        packet.message = message
        packet.id = packet_id
        packet.global_id = gid
        last = pkt_flits - 1
        packet.flits = [
            Flit(packet, i, i == 0, i == last) for i in range(pkt_flits)
        ]
        packet.injection_tick = injection_tick
        packet.hop_count = hop_count
        packet.non_minimal = non_minimal
        packet.intermediate = intermediate
        packet.routing_state = dict(routing_state)
        message.packets[packet_id] = packet
        self.packets[gid] = packet
        return packet

    # -- lifecycle ---------------------------------------------------------

    def release_delivered(self, message_ids) -> None:
        """Drop registered state for messages delivered network-wide."""
        for msg_id in message_ids:
            message = self.messages.pop(msg_id, None)
            if message is None:
                continue
            for packet in message.packets:
                if packet is not None:
                    self.packets.pop(packet.global_id, None)

    @property
    def outstanding(self) -> int:
        """Registered messages not yet released (leak check input)."""
        return len(self.messages)


# -- phantom terminals -------------------------------------------------------


def make_phantom_interface(interface: Interface) -> None:
    """Replace ``interface.send_message`` with an id-consuming no-op.

    Every worker runs *all* terminals -- including those of foreign
    shards -- so the shared per-application RNG streams (traffic
    destination, message size) and the global message/packet id counters
    advance in exactly the creation order of the single-process run.
    Terminals attached to foreign interfaces must therefore packetize
    (consuming packet ids) but must not enqueue, wake the injection
    pipeline, or touch the local network.
    """

    def phantom_send_message(message: Message) -> None:
        if message.created_tick is None:
            message.created_tick = interface.simulator.tick
        interface.messages_sent += 1
        message.packetize(interface.max_packet_size)

    interface.send_message = phantom_send_message
    interface.shard_phantom = True
