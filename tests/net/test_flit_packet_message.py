"""The flit/packet/message data model."""

import itertools

import pytest

from repro import Settings, Simulation
from repro.net.flit import Flit
from repro.net.message import Message
from repro.net.packet import Packet

from tests.conftest import make_message, make_packet, small_torus_config


class TestMessage:
    def test_basic_construction(self):
        message = Message(4, 2, 5, 9, 10)
        assert message.id == 4
        assert message.application_id == 2
        assert message.source == 5
        assert message.destination == 9
        assert message.num_flits == 10
        assert message.transaction_id == message.id

    def test_explicit_transaction(self):
        message = Message(0, 0, 0, 1, 1, transaction_id=777)
        assert message.transaction_id == 777

    def test_unique_ids(self):
        network = Simulation(Settings.from_dict(small_torus_config())).network
        a = make_message(network=network)
        b = make_message(network=network)
        assert a.id != b.id

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            make_message(0, 1, 0)
        with pytest.raises(ValueError):
            make_message(-1, 1, 1)

    def test_latency_requires_delivery(self):
        message = make_message(0, 1, 1)
        assert message.latency() is None
        message.created_tick = 10
        message.delivered_tick = 35
        assert message.latency() == 25


class TestPacketization:
    def test_exact_split(self):
        message = make_message(0, 1, 8)
        packets = message.packetize(4, itertools.count())
        assert [p.num_flits for p in packets] == [4, 4]

    def test_remainder_packet(self):
        message = make_message(0, 1, 10)
        packets = message.packetize(4, itertools.count())
        assert [p.num_flits for p in packets] == [4, 4, 2]

    def test_single_packet(self):
        message = make_message(0, 1, 3)
        assert len(message.packetize(16, itertools.count())) == 1

    def test_num_packets_set_by_packetize(self):
        message = make_message(0, 1, 10)
        assert message.num_packets == 0
        message.packetize(4, itertools.count())
        assert message.num_packets == 3

    def test_double_packetize_rejected(self):
        message = make_message(0, 1, 4)
        message.packetize(2, itertools.count())
        with pytest.raises(RuntimeError):
            message.packetize(2, itertools.count())

    def test_invalid_max_size(self):
        with pytest.raises(ValueError):
            make_message(0, 1, 4).packetize(0, itertools.count())

    def test_packet_ids_sequential(self):
        message = make_message(0, 1, 9)
        packets = message.packetize(3, itertools.count(5))
        assert [p.id for p in packets] == [0, 1, 2]
        assert [p.global_id for p in packets] == [5, 6, 7]


def all_flits(packet):
    return [packet.flit(i) for i in range(packet.num_flits)]


class TestFlits:
    def test_head_tail_flags(self):
        packet = make_packet(0, 1, 4)
        flags = [(f.head, f.tail) for f in all_flits(packet)]
        assert flags == [(True, False), (False, False), (False, False),
                         (False, True)]

    def test_single_flit_is_head_and_tail(self):
        packet = make_packet(0, 1)
        flit = packet.flit(0)
        assert flit.head and flit.tail

    def test_flit_indices(self):
        packet = make_packet(0, 1, 5)
        assert [f.index for f in all_flits(packet)] == [0, 1, 2, 3, 4]

    def test_head_tail_accessors(self):
        packet = make_packet(0, 1, 3)
        assert packet.flit(0).head and not packet.flit(0).tail
        assert packet.flit(2).tail and not packet.flit(2).head

    @pytest.mark.parametrize("num_flits", [1, 2, 7])
    def test_packet_builds_its_flits(self, num_flits):
        packet = Packet(make_message(0, 1, num_flits), 0, 0, num_flits)
        assert packet.num_flits == num_flits
        flits = all_flits(packet)
        assert all(type(flit) is Flit for flit in flits)
        assert all(flit.packet is packet for flit in flits)
        assert [flit.head for flit in flits].count(True) == 1
        assert [flit.tail for flit in flits].count(True) == 1
        assert flits[0].head and flits[-1].tail

    def test_plain_record_defaults(self):
        packet = make_packet(0, 1, 2)
        flit = packet.flit(1)
        assert Flit.__slots__ == ("packet", "index", "head", "tail", "vc")
        assert not hasattr(flit, "__dict__")
        assert (flit.packet, flit.index, flit.head, flit.tail) == (
            packet, 1, False, True)
        assert flit.vc == 0
        flit.vc = 3
        assert flit.vc == 3

    def test_repr_names_packet_position_and_vc(self):
        packet = make_packet(0, 1, 3)
        gid = packet.global_id
        flits = all_flits(packet)
        flits[1].vc = 2
        assert repr(flits[0]) == f"Flit(pkt={gid}, i=0, H, vc=0)"
        assert repr(flits[1]) == f"Flit(pkt={gid}, i=1, B, vc=2)"
        assert repr(flits[2]) == f"Flit(pkt={gid}, i=2, T, vc=0)"
        single = make_packet(0, 1)
        assert repr(single.flit(0)).endswith("i=0, HT, vc=0)")


class TestPacketState:
    def test_routing_scratch_space(self):
        packet = make_packet(0, 1)
        assert packet.routing_state is None
        packet.routing_state = ("minimal",)
        assert packet.routing_state == ("minimal",)

    def test_age(self):
        packet = make_packet(3, 1)
        assert packet.age(100) == 0  # not yet injected
        packet.injection_tick = 40
        assert packet.age(100) == 60

    def test_source_destination_proxy(self):
        packet = make_packet(3, 9)
        assert packet.source == 3
        assert packet.destination == 9

    def test_invalid_flit_count(self):
        with pytest.raises(ValueError):
            Packet(make_message(0, 1, 1), 0, 0, 0)
