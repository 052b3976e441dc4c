"""Channels: latency, pacing, credit return path."""

import pytest

from repro.core.simulator import Simulator
from repro.net.channel import Channel, ChannelError, CreditChannel
from repro.net.credit import Credit
from repro.net.device import PortedDevice

from tests.conftest import make_packet


class SinkDevice(PortedDevice):
    """Records everything it receives, with arrival ticks."""

    def __init__(self, simulator, name):
        super().__init__(simulator, name, None, num_ports=1, num_vcs=2)
        self.flits = []
        self.credits = []

    def input_buffer_capacities(self, port):
        return [8] * self.num_vcs

    def receive_flit(self, port, flit):
        self.flits.append((self.simulator.tick, port, flit))

    def receive_credit(self, port, credit):
        self.credits.append((self.simulator.tick, port, credit.vc))


def make_flit():
    return make_packet(0, 1).flit(0)


@pytest.fixture
def sim():
    return Simulator()


def test_flit_arrives_after_latency(sim):
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=7)
    channel.connect_sink(sink, 0)
    flit = make_flit()
    sim.call_at(10, lambda e: channel.send_flit(flit))
    sim.run()
    assert sink.flits == [(17, 0, flit)]


def test_one_flit_per_cycle_pacing(sim):
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=3, period=1)
    channel.connect_sink(sink, 0)

    def send_two(event):
        channel.send_flit(make_flit())
        assert not channel.can_send()
        with pytest.raises(ChannelError):
            channel.send_flit(make_flit())

    sim.call_at(5, send_two)
    sim.run()
    assert len(sink.flits) == 1


def test_pacing_with_period(sim):
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=2, period=4)
    channel.connect_sink(sink, 0)

    def sender(event):
        if channel.can_send():
            channel.send_flit(make_flit())
        if sim.tick < 12:
            sim.call_at(sim.tick + 1, sender)

    sim.call_at(0, sender)
    sim.run()
    # Sends at 0, 4, 8, 12 -> arrivals at 2, 6, 10, 14.
    assert [t for t, _p, _f in sink.flits] == [2, 6, 10, 14]


def test_next_send_tick(sim):
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=1, period=3)
    channel.connect_sink(sink, 0)

    def check(event):
        assert channel.next_send_tick() == 5
        channel.send_flit(make_flit())
        assert channel.next_send_tick() == 8

    sim.call_at(5, check)
    sim.run()


def test_send_without_sink_raises(sim):
    channel = Channel(sim, "ch", None, latency=1)
    sim.call_at(1, lambda e: channel.send_flit(make_flit()))
    with pytest.raises(ChannelError):
        sim.run()


def test_double_sink_rejected(sim):
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=1)
    channel.connect_sink(sink, 0)
    with pytest.raises(ChannelError):
        channel.connect_sink(sink, 0)


def test_invalid_latency_and_period(sim):
    with pytest.raises(ValueError):
        Channel(sim, "a", None, latency=0)
    with pytest.raises(ValueError):
        Channel(sim, "b", None, latency=1, period=0)
    with pytest.raises(ValueError):
        CreditChannel(sim, "c", None, latency=0)


def test_utilization(sim):
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=1, period=1)
    channel.connect_sink(sink, 0)

    def sender(event):
        channel.send_flit(make_flit())
        if sim.tick < 4:
            sim.call_at(sim.tick + 1, sender)

    sim.call_at(0, sender)
    sim.run()
    assert channel.flits_carried == 5
    assert channel.utilization(10) == 0.5


def test_credit_channel_latency_no_pacing(sim):
    sink = SinkDevice(sim, "sink")
    channel = CreditChannel(sim, "cc", None, latency=4)
    channel.connect_sink(sink, 0)

    def send(event):
        # Multiple credits in one tick are fine (piggybacking).
        channel.send_credit(Credit(0))
        channel.send_credit(Credit(1))

    sim.call_at(3, send)
    sim.run()
    assert sink.credits == [(7, 0, 0), (7, 0, 1)]


# -- coalesced delivery FIFO ---------------------------------------------------


def test_coalesced_fifo_keeps_one_pending_event(sim):
    """A busy channel holds one delivery event, not one per flit."""
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=5)
    channel.connect_sink(sink, 0)
    flits = [make_flit() for _ in range(3)]

    def send(event):
        channel.send_flit(flits[event.data])

    for tick in range(3):
        sim.call_at(10 + tick, send, data=tick)
    sim.run()
    # One send event per flit plus one self-rescheduling delivery chain:
    # 3 sends + 3 batch firings = 6, not 3 sends + 3 scheduled deliveries
    # + extra bookkeeping.  The observable contract is the arrival times.
    assert [(t, f) for t, _p, f in sink.flits] == [
        (15, flits[0]), (16, flits[1]), (17, flits[2])
    ]
    assert channel.inflight_items() == 0


def test_coalesced_pacing_overdrive_still_raises(sim):
    """Coalescing must not relax the one-flit-per-period bandwidth check."""
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=2, period=3)
    channel.connect_sink(sink, 0)
    sent = []

    def send_burst(event):
        channel.send_flit(make_flit())
        sent.append(sim.tick)
        for _ in range(2):
            with pytest.raises(ChannelError, match="overdriven"):
                channel.send_flit(make_flit())

    sim.call_at(4, send_burst)
    sim.call_at(5, lambda e: pytest.raises(ChannelError, channel.send_flit, make_flit()))
    sim.call_at(7, send_burst)  # 4 + period is free again
    sim.run()
    assert sent == [4, 7]
    assert [t for t, _p, _f in sink.flits] == [6, 9]


def test_multiple_credits_per_cycle_single_event(sim):
    """Same-tick credits coalesce into one delivery event (piggybacking)."""
    sink = SinkDevice(sim, "sink")
    channel = CreditChannel(sim, "cc", None, latency=4)
    channel.connect_sink(sink, 0)

    def send(event):
        for vc in (0, 1, 0):
            channel.send_credit(Credit(vc))
        assert channel.inflight_items() == 3

    sim.call_at(3, send)
    sim.run()
    assert sink.credits == [(7, 0, 0), (7, 0, 1), (7, 0, 0)]
    # The whole run: the send event plus ONE coalesced delivery event.
    assert sim.executed_events == 2


def test_flit_batches_refire_per_due_tick(sim):
    """Back-to-back sends produce one batch firing per due tick."""
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=1)
    channel.connect_sink(sink, 0)
    count = [0]

    def send(event):
        channel.send_flit(make_flit())
        count[0] += 1
        if count[0] < 4:
            sim.call_at(sim.tick + 1, send)

    sim.call_at(1, send)
    sim.run()
    # 4 sends + 4 single-item batches (dues are 1 apart, never merged).
    assert sim.executed_events == 8
    assert [t for t, _p, _f in sink.flits] == [2, 3, 4, 5]
