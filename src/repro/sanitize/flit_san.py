"""FlitSan: flit/packet conservation and wormhole stream ordering.

Two end-to-end properties the per-device checks cannot see:

* **Conservation** -- every flit injected at a source interface is
  either ejected at its destination interface or still in flight.  A
  router that drops a flit (or delivers the same object twice) breaks
  no local assertion; the workload just never drains, or drains with a
  corrupted message.  FlitSan keeps the set of in-network flits, added
  when a flit enters an interface's injection channel and removed when
  one arrives at an interface's ejection port; :meth:`finish` reports
  the leak set once the event queue is quiescent.
* **Stream order** -- wormhole switching streams a packet's flits
  contiguously per (channel, VC): one head, bodies in index order, one
  tail, no interleaving with another packet on the same VC.  The
  destination interface checks this at ejection (§IV-D), but by then
  the corrupting hop is long gone.  FlitSan checks it at *every* flit
  channel on every send, so a violation names the first bad link.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro import factory
from repro.net.channel import Channel
from repro.net.interface import Interface
from repro.sanitize.base import MethodPatch, Sanitizer


@factory.register(Sanitizer, "flit")
class FlitSan(Sanitizer):
    """Flit conservation + head/body/tail ordering on every channel."""

    name = "flit"
    description = (
        "end-to-end flit conservation (injected == ejected + in flight) "
        "and per-channel/per-VC head/body/tail stream ordering"
    )

    def __init__(self) -> None:
        super().__init__()
        # id(flit channel) -> channel (all flit channels in the network).
        self._channels: Dict[int, Channel] = {}
        # (id(channel), vc) -> (packet, next expected flit index).
        self._streams: Dict[Tuple[int, int], Tuple[object, int]] = {}
        # Injection channels add to the in-network map, ejection channels
        # remove; a flit channel can be both only in a degenerate
        # interface-to-interface wiring, which the Network never builds.
        self._injection: Dict[int, bool] = {}
        self._ejection: Dict[int, bool] = {}
        self._in_network: Dict[int, object] = {}  # id(flit) -> flit
        self.flits_tracked = 0

    def _install(self, simulation) -> None:
        network = simulation.network
        for channel in network.flit_channels:
            self._channels[id(channel)] = channel
            if isinstance(channel.sink, Interface):
                self._ejection[id(channel)] = True
        for interface in network.interfaces:
            injection_channel = interface._flit_out[0]
            if injection_channel is not None:
                self._injection[id(injection_channel)] = True

        channels = self._channels
        injection = self._injection
        ejection = self._ejection
        in_network = self._in_network
        on_send = self._on_send

        def wrap_send_flit(original):
            def send_flit(channel, flit):
                original(channel, flit)
                channel_id = id(channel)
                if channel_id in channels:
                    on_send(channel, channel_id, flit)
                    if channel_id in injection:
                        if id(flit) in in_network:
                            self.violation(
                                f"flit injected twice without ejection on "
                                f"{channel.full_name}: {flit!r}"
                            )
                        in_network[id(flit)] = flit
                        self.flits_tracked += 1

            return send_flit

        def wrap_deliver(original):
            # Per-item landing hook: the flit is removed from the in-network
            # map *before* the interface consumes (and possibly frees)
            # it, so the id() key is read while it is still unambiguous.
            def _deliver_item(channel, flit):
                channel_id = id(channel)
                if channel_id in ejection:
                    if in_network.pop(id(flit), None) is None:
                        self.violation(
                            f"flit ejected on {channel.full_name} that is "
                            f"not in the network (dropped-then-delivered, "
                            f"or delivered twice): {flit!r}"
                        )
                original(channel, flit)

            return _deliver_item

        self._patches = [
            MethodPatch(Channel, "send_flit", wrap_send_flit),
            MethodPatch(Channel, "_deliver_item", wrap_deliver),
        ]

    def _on_send(self, channel: Channel, channel_id: int, flit) -> None:
        """Advance the (channel, VC) wormhole stream state machine."""
        self.checks += 1
        vc = flit.vc
        stream_key = (channel_id, vc)
        current = self._streams.get(stream_key)
        if flit.head:
            if current is not None:
                self.violation(
                    f"head flit of packet {flit.packet.global_id} "
                    f"interleaves packet {current[0].global_id} on "
                    f"{channel.full_name} VC {vc} (expected flit "
                    f"{current[1]} next)"
                )
            if not flit.tail:
                self._streams[stream_key] = (flit.packet, 1)
            return
        if current is None:
            self.violation(
                f"body/tail flit with no packet in progress on "
                f"{channel.full_name} VC {vc}: {flit!r}"
            )
        packet, expected_index = current
        if flit.packet is not packet or flit.index != expected_index:
            self.violation(
                f"out-of-order flit on {channel.full_name} VC {vc}: "
                f"expected packet {packet.global_id} flit "
                f"{expected_index}, got {flit!r}"
            )
        if flit.tail:
            del self._streams[stream_key]
        else:
            self._streams[stream_key] = (packet, expected_index + 1)

    def finish(self) -> None:
        simulator = self.simulation.simulator
        if simulator.pending_events > 0:
            # Flits legitimately in flight; conservation is only checkable
            # at quiescence.
            return
        if self._streams:
            (channel_id, vc), (packet, index) = next(iter(self._streams.items()))
            channel = self._channels[channel_id]
            self.violation(
                f"queue is quiescent but packet {packet.global_id} is "
                f"mid-stream on {channel.full_name} VC {vc} (next flit "
                f"{index} never sent): a model dropped part of a packet"
            )
        if self._in_network:
            leaked = list(self._in_network.values())
            preview = ", ".join(repr(flit) for flit in leaked[:5])
            self.violation(
                f"queue is quiescent but {len(leaked)} injected flit(s) "
                f"were never ejected (first few: {preview}): a router "
                f"dropped or stranded them"
            )

    def report(self):
        return {
            "checks": self.checks,
            "flits_tracked": self.flits_tracked,
            "in_flight": len(self._in_network),
        }
