"""PortedDevice wiring errors and invariants."""

import pytest

from repro.core.simulator import Simulator
from repro.net.channel import Channel, CreditChannel
from repro.net.device import PortedDevice, WiringError

from tests.conftest import make_packet


class BareDevice(PortedDevice):
    def __init__(self, simulator, name, num_ports=2, num_vcs=2):
        super().__init__(simulator, name, None, num_ports, num_vcs)
        self.received = []

    def input_buffer_capacities(self, port):
        return [4] * self.num_vcs

    def receive_flit(self, port, flit):
        self.received.append((port, flit))

    def receive_credit(self, port, credit):
        pass


@pytest.fixture
def sim():
    return Simulator()


def make_flit():
    return make_packet(0, 1).flit(0)


def test_double_wiring_rejected(sim):
    device = BareDevice(sim, "dev")
    channel = Channel(sim, "ch", None, latency=1)
    device.set_flit_channel_out(0, channel)
    with pytest.raises(WiringError):
        device.set_flit_channel_out(0, channel)


def test_double_credit_channel_rejected(sim):
    device = BareDevice(sim, "dev")
    channel = CreditChannel(sim, "cc", None, latency=1)
    device.set_credit_channel_out(0, channel)
    with pytest.raises(WiringError):
        device.set_credit_channel_out(0, channel)


def test_double_credit_init_rejected(sim):
    device = BareDevice(sim, "dev")
    device.init_output_credits(0, [4, 4])
    with pytest.raises(WiringError):
        device.init_output_credits(0, [4, 4])


def test_send_on_unwired_port_rejected(sim):
    device = BareDevice(sim, "dev")
    with pytest.raises(WiringError):
        device.output_channel(0)
    with pytest.raises(WiringError):
        device.send_credit(0, 0)
    device.init_output_credits(0, [1, 1])
    with pytest.raises(WiringError):
        device.send_flit(0, make_flit())


def test_send_flit_consumes_credit(sim):
    source = BareDevice(sim, "src")
    sink = BareDevice(sim, "snk")
    channel = Channel(sim, "ch", None, latency=1)
    source.set_flit_channel_out(0, channel)
    channel.connect_sink(sink, 0)
    source.init_output_credits(0, [1, 1])
    flit = make_flit()
    flit.vc = 0

    def go(event):
        source.send_flit(0, flit)
        assert source._credits[0] == 0  # output VC o = 0 * 2 + 0
        assert source._credits[1] == 1

    sim.call_at(0, go, epsilon=1)
    sim.run()
    assert sink.received


def test_port_is_wired(sim):
    device = BareDevice(sim, "dev")
    assert not device.port_is_wired(0)
    device.set_flit_channel_out(0, Channel(sim, "ch", None, latency=1))
    assert device.port_is_wired(0)


def test_construction_validation(sim):
    with pytest.raises(ValueError):
        BareDevice(sim, "a", num_ports=0)
    with pytest.raises(ValueError):
        BareDevice(sim, "b", num_vcs=0)
