"""Network interfaces: terminal-to-network adapters.

The interface sits between a terminal (workload side) and a router
(network side).  On the injection path it segments messages into packets
and flits and transmits them under credit flow control, one flit per
channel cycle.  On the ejection path it reassembles flits into packets
and packets into messages, performing the paper's §IV-D error detection:
every flit delivered is checked to have arrived at the right destination
and in the right order with respect to other flits in the packet.

Interfaces are built through the object factory so users can substitute
their own models (``"standard"`` is the packaged implementation).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from repro import factory
from repro.core.clock import Clock
from repro.core.component import Component
from repro.core.event import Event
from repro.net.credit import Credit
from repro.net.device import PortedDevice
from repro.net.flit import Flit
from repro.net.message import Message
from repro.net.packet import Packet
from repro.net.phases import EPS_STEP

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.settings import Settings
    from repro.core.simulator import Simulator


class InterfaceError(RuntimeError):
    """Raised on protocol violations detected at an interface."""


class Interface(PortedDevice):
    """Abstract interface API: the network builds these via the factory."""

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        parent: Optional[Component],
        interface_id: int,
        num_vcs: int,
    ):
        super().__init__(simulator, name, parent, num_ports=1, num_vcs=num_vcs)
        self.interface_id = interface_id
        self.message_delivered_listeners: List[Callable[[Message], None]] = []
        self.packet_delivered_listeners: List[Callable[[Packet], None]] = []

    def send_message(self, message: Message) -> None:
        """Accept a message from the terminal for injection."""
        raise NotImplementedError

    def pending_flits(self) -> int:
        """Flits accepted but not yet transmitted (injection backlog)."""
        raise NotImplementedError

    def _deliver_message(self, message: Message) -> None:
        message.delivered_tick = self.simulator.tick
        for listener in self.message_delivered_listeners:
            listener(message)

    def _deliver_packet(self, packet: Packet) -> None:
        for listener in self.packet_delivered_listeners:
            listener(packet)


@factory.register(Interface, "standard")
class StandardInterface(Interface):
    """The packaged interface model.

    Settings:
        ``max_packet_size`` -- maximum flits per packet (messages larger
            than this are segmented).
        ``ejection_buffer_size`` -- per-VC flit capacity advertised to the
            upstream router (credits are returned as soon as a flit is
            consumed, so this bounds in-flight flits per VC).
        ``injection_vcs`` -- optional explicit list of VCs that new
            packets may start on; defaults to the set the network's
            routing algorithm declares.
    """

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        parent: Optional[Component],
        interface_id: int,
        num_vcs: int,
        settings: "Settings",
        channel_clock: Clock,
        injection_vcs: Optional[List[int]] = None,
    ):
        super().__init__(simulator, name, parent, interface_id, num_vcs)
        self.max_packet_size = settings.get_uint("max_packet_size", 16)
        self.ejection_buffer_size = settings.get_uint("ejection_buffer_size", 64)
        if "injection_vcs" in settings:
            injection_vcs = settings.get_int_list("injection_vcs")
        if not injection_vcs:
            injection_vcs = list(range(num_vcs))
        for vc in injection_vcs:
            if not 0 <= vc < num_vcs:
                raise InterfaceError(
                    f"{self.full_name}: injection VC {vc} out of range "
                    f"[0, {num_vcs})"
                )
        self.injection_vcs = list(injection_vcs)
        self.channel_clock = channel_clock

        # Injection state: FIFO of packets; the head packet streams its
        # flits in order on its assigned VC.
        self._packet_queue: Deque[Packet] = deque()
        self._next_flit_index = 0
        self._next_vc_choice = 0
        self._step_scheduled = False
        self._step_wheel = simulator.wheel(EPS_STEP)
        # Unit-period channel clocks (the common case) take arithmetic
        # fast paths instead of Clock edge calls in the injection loop.
        self._chan_period1 = channel_clock.period == 1 and channel_clock.phase == 0
        # Port-0 tracker/channel, cached lazily (wiring happens after
        # construction).
        self._tracker0 = None
        self._channel0 = None

        # Ejection state: per-VC (packet, next expected flit index).
        self._reassembly: Dict[int, Tuple[Packet, int]] = {}
        self._packets_remaining: Dict[int, int] = {}  # message id -> count

        # Counters.
        self.flits_injected = 0
        self.flits_ejected = 0
        self.messages_sent = 0
        self.messages_delivered = 0

    # -- PortedDevice wiring ---------------------------------------------------

    def input_buffer_capacities(self, port: int) -> List[int]:
        return [self.ejection_buffer_size] * self.num_vcs

    # -- injection path ----------------------------------------------------------

    def send_message(self, message: Message) -> None:
        if message.source != self.interface_id:
            raise InterfaceError(
                f"{self.full_name}: message source {message.source} does not "
                f"match interface id {self.interface_id}"
            )
        if message.created_tick is None:
            message.created_tick = self.simulator.tick
        self.messages_sent += 1
        for packet in message.packetize(self.max_packet_size):
            # Assign the starting VC round-robin over the allowed set.
            vc = self.injection_vcs[self._next_vc_choice % len(self.injection_vcs)]
            self._next_vc_choice += 1
            packet.routing_state["injection_vc"] = vc
            self._packet_queue.append(packet)
        self._wake()

    def pending_flits(self) -> int:
        total = sum(p.num_flits for p in self._packet_queue)
        return total - self._next_flit_index

    def _wake(self) -> None:
        if self._step_scheduled or not self._packet_queue:
            return
        self._step_scheduled = True
        simulator = self.simulator
        if self._chan_period1:
            tick = simulator.tick
            if simulator.epsilon >= EPS_STEP:
                tick += 1
        else:
            now_tick = simulator.tick
            tick = self.channel_clock.next_edge(now_tick)
            if tick == now_tick and simulator.epsilon >= EPS_STEP:
                tick = self.channel_clock.following_edge(now_tick)
        self._step_wheel.add(tick, self._inject_step)

    def _inject_step(self, event: Event) -> None:
        self._step_scheduled = False
        queue = self._packet_queue
        if not queue:
            return
        packet = queue[0]
        vc = packet.routing_state["injection_vc"]
        tracker = self._tracker0
        if tracker is None:
            tracker = self._tracker0 = self.output_credit_tracker(0)
            self._channel0 = self.output_channel(0)
        channel = self._channel0
        now = self.simulator.tick
        if tracker._credits[vc] > 0 and now >= channel._next_free_tick:
            flit = packet.flits[self._next_flit_index]
            flit.vc = vc
            flit.send_tick = now
            if flit.head:
                packet.injection_tick = now
            # Via the public hook: subclasses (and fault-injection
            # models) override send_flit to intercept injection.
            self.send_flit(0, flit)
            self.flits_injected += 1
            self._next_flit_index += 1
            if self._next_flit_index >= packet.num_flits:
                queue.popleft()
                self._next_flit_index = 0
        if queue:
            # Reschedule only when progress is possible without a credit
            # arriving first: when blocked purely on credits, sleep --
            # receive_credit wakes us.  This avoids per-cycle spin at
            # saturation.
            packet = queue[0]
            vc = packet.routing_state["injection_vc"]
            if tracker._credits[vc] > 0:
                self._step_scheduled = True
                if self._chan_period1:
                    tick = now + 1
                    free = channel._next_free_tick
                    if free > tick:
                        tick = free
                else:
                    tick = max(
                        self.channel_clock.following_edge(now),
                        self.channel_clock.next_edge(channel.next_send_tick()),
                    )
                self._step_wheel.add(tick, self._inject_step)

    def receive_credit(self, port: int, credit: Credit) -> None:
        self.output_credit_tracker(port).give(credit.vc)
        self._wake()

    # -- ejection path -------------------------------------------------------------

    def receive_flit(self, port: int, flit: Flit) -> None:
        packet = flit.packet
        message = packet.message
        # §IV-D: right destination.
        if message.destination != self.interface_id:
            raise InterfaceError(
                f"{self.full_name}: flit for terminal {message.destination} "
                f"arrived at interface {self.interface_id}: {flit!r}"
            )
        vc = flit.vc
        # §IV-D: right order within the packet, no interleaving within a VC.
        if flit.head:
            if vc in self._reassembly:
                other = self._reassembly[vc][0]
                raise InterfaceError(
                    f"{self.full_name}: head flit of packet {packet.global_id} "
                    f"interleaves packet {other.global_id} on VC {vc}"
                )
            self._reassembly[vc] = (packet, 0)
        if vc not in self._reassembly:
            raise InterfaceError(
                f"{self.full_name}: body flit with no packet in progress on "
                f"VC {vc}: {flit!r}"
            )
        expected_packet, expected_index = self._reassembly[vc]
        if expected_packet is not packet or expected_index != flit.index:
            raise InterfaceError(
                f"{self.full_name}: out-of-order flit on VC {vc}: expected "
                f"packet {expected_packet.global_id} flit {expected_index}, "
                f"got {flit!r}"
            )
        flit.receive_tick = self.simulator.tick
        self.flits_ejected += 1
        # The ejection buffer consumes the flit immediately: return credit.
        self.send_credit(port, vc)
        if flit.tail:
            del self._reassembly[vc]
            self._packet_done(packet)
        else:
            self._reassembly[vc] = (packet, flit.index + 1)

    def _packet_done(self, packet: Packet) -> None:
        message = packet.message
        self._deliver_packet(packet)
        remaining = self._packets_remaining.get(message.id)
        if remaining is None:
            remaining = message.num_packets
        remaining -= 1
        if remaining == 0:
            self._packets_remaining.pop(message.id, None)
            self.messages_delivered += 1
            self._deliver_message(message)
        else:
            self._packets_remaining[message.id] = remaining
