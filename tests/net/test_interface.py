"""Interfaces: packetization, injection pacing, reassembly, §IV-D
error detection."""

import itertools

import pytest

from repro.core.clock import Clock
from repro.core.simulator import Simulator
from repro.config.settings import Settings
from repro.net.channel import Channel, CreditChannel
from repro.net.device import PortedDevice
from repro.net.interface import InterfaceError, StandardInterface
from repro.net.network import wire


from repro.core.component import Component

from tests.conftest import make_message

_stub_count = [0]


class LoopNetworkStub(Component):
    """Just enough of a Network for its interfaces and wire(): simulator,
    id sequences + link counter."""

    def __init__(self, simulator):
        _stub_count[0] += 1
        super().__init__(simulator, f"netstub{_stub_count[0]}", None)
        self.message_ids = itertools.count()
        self.packet_ids = itertools.count()
        self._links = 0
        self.flit_channels = []

    def _next_link_index(self):
        self._links += 1
        return self._links - 1


def build_pair(sim, latency=2, num_vcs=2, max_packet=4):
    """Two interfaces wired back to back (0 <-> 1)."""
    clock = Clock(sim, period=1)
    settings = Settings.from_dict({"max_packet_size": max_packet})
    stub = LoopNetworkStub(sim)
    a = StandardInterface(sim, "ifaceA", stub, 0, num_vcs, settings, clock, [0])
    b = StandardInterface(sim, "ifaceB", stub, 1, num_vcs, settings, clock, [0])
    wire(stub, a, 0, b, 0, latency, 1)
    return a, b


@pytest.fixture
def sim():
    return Simulator()


def test_single_message_delivery(sim):
    a, b = build_pair(sim)
    delivered = []
    b.message_delivered_listeners.append(delivered.append)
    message = make_message(0, 1, 3)
    sim.call_at(0, lambda e: a.send_message(message))
    sim.run()
    assert delivered == [message]
    assert message.delivered_tick is not None
    assert b.flits_ejected == 3
    assert a.flits_injected == 3


def test_message_segmented_into_packets(sim):
    a, b = build_pair(sim, max_packet=4)
    delivered = []
    b.message_delivered_listeners.append(delivered.append)
    packets = []
    b.packet_delivered_listeners.append(packets.append)
    message = make_message(0, 1, 10)
    sim.call_at(0, lambda e: a.send_message(message))
    sim.run()
    assert message.num_packets == 3
    assert sorted(p.num_flits for p in packets) == [2, 4, 4]
    assert sorted(p.id for p in packets) == [0, 1, 2]
    assert delivered == [message]


def ejection_ticks(interface):
    """(flit, tick) for every flit ``interface`` ejects, in order."""
    seen = []
    receive_flit = interface.receive_flit

    def observe(port, flit):
        seen.append((flit, interface.simulator.tick))
        receive_flit(port, flit)

    interface.receive_flit = observe
    return seen


def test_injection_respects_channel_rate(sim):
    a, b = build_pair(sim, latency=1)
    ejected = ejection_ticks(b)
    message = make_message(0, 1, 5)
    sim.call_at(0, lambda e: a.send_message(message))
    sim.run()
    # One flit per cycle: 5 flits need >= 5 cycles of wire time.
    assert [(f.packet.id, f.index) for f, _t in ejected] == [
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]
    receive_ticks = [tick for _f, tick in ejected]
    assert sorted(receive_ticks) == receive_ticks
    assert receive_ticks[-1] - receive_ticks[0] == 4


def test_packet_delivered_listener(sim):
    a, b = build_pair(sim, max_packet=2)
    packets = []
    b.packet_delivered_listeners.append(packets.append)
    message = make_message(0, 1, 4)
    sim.call_at(0, lambda e: a.send_message(message))
    sim.run()
    assert len(packets) == 2


def test_wrong_source_rejected(sim):
    a, _b = build_pair(sim)
    message = make_message(5, 1, 1)  # source is not interface 0
    with pytest.raises(InterfaceError):
        a.send_message(message)


def test_wrong_destination_detected(sim):
    """§IV-D: every flit is checked to arrive at the right destination."""
    a, b = build_pair(sim)
    message = make_message(0, 7, 1)  # destination 7, but wired to 1
    sim.call_at(0, lambda e: a.send_message(message))
    with pytest.raises(InterfaceError):
        sim.run()


def test_multiple_messages_fifo(sim):
    a, b = build_pair(sim)
    delivered = []
    b.message_delivered_listeners.append(delivered.append)
    first = make_message(0, 1, 2, a.parent)
    second = make_message(0, 1, 2, a.parent)

    def send(event):
        a.send_message(first)
        a.send_message(second)

    sim.call_at(0, send)
    sim.run()
    assert delivered == [first, second]


def test_pending_flits(sim):
    a, _b = build_pair(sim)
    counts = []

    def send(event):
        a.send_message(make_message(0, 1, 6))
        counts.append(a.pending_flits())

    sim.call_at(0, send)
    sim.run()
    assert counts == [6]
    assert a.pending_flits() == 0


def test_round_robin_over_injection_vcs(sim):
    clock = Clock(sim, period=1)
    settings = Settings.from_dict({"max_packet_size": 2})
    stub = LoopNetworkStub(sim)
    a = StandardInterface(sim, "a", stub, 0, 4, settings, clock, [0, 2])
    b = StandardInterface(sim, "b", stub, 1, 4, settings, clock, [0, 2])
    wire(stub, a, 0, b, 0, 1, 1)
    packets = []
    b.packet_delivered_listeners.append(packets.append)
    msg = make_message(0, 1, 8)  # four packets
    sim.call_at(0, lambda e: a.send_message(msg))
    sim.run()
    vcs = [p.injection_vc for p in sorted(packets, key=lambda p: p.id)]
    assert vcs == [0, 2, 0, 2]


def test_injection_vc_out_of_range_rejected(sim):
    clock = Clock(sim, period=1)
    settings = Settings.from_dict({})
    with pytest.raises(InterfaceError):
        StandardInterface(sim, "a", LoopNetworkStub(sim), 0, 2, settings,
                          clock, [5])


def test_credit_blocking_limits_inflight(sim):
    """With a tiny downstream buffer and long latency, the sender must
    stall on credits rather than overrun."""
    clock = Clock(sim, period=1)
    settings = Settings.from_dict({"max_packet_size": 16,
                                   "ejection_buffer_size": 2})
    stub = LoopNetworkStub(sim)
    a = StandardInterface(sim, "a", stub, 0, 1, settings, clock, [0])
    b = StandardInterface(sim, "b", stub, 1, 1, settings, clock, [0])
    wire(stub, a, 0, b, 0, 10, 1)
    msg = make_message(0, 1, 12)
    sim.call_at(0, lambda e: a.send_message(msg))
    sim.run()  # would raise BufferOverrun or Credit errors if broken
    assert b.flits_ejected == 12


def test_flit_timestamps(sim):
    a, b = build_pair(sim, latency=3)
    ejected = ejection_ticks(b)
    msg = make_message(0, 1, 2)
    sim.call_at(5, lambda e: a.send_message(msg))
    sim.run()
    head, head_tick = ejected[0]
    assert head.head
    assert head.packet.injection_tick is not None
    assert head_tick == head.packet.injection_tick + 3
    (record,) = msg.packet_records
    assert record.send_tick == head.packet.injection_tick
    assert record.receive_tick == ejected[-1][1]
