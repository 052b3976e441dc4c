"""The flit/packet/message data model."""

import pytest

from repro.net.flit import Flit
from repro.net.message import Message
from repro.net.packet import Packet


class TestMessage:
    def test_basic_construction(self):
        message = Message(2, 5, 9, 10)
        assert message.application_id == 2
        assert message.source == 5
        assert message.destination == 9
        assert message.num_flits == 10
        assert message.transaction_id == message.id

    def test_explicit_transaction(self):
        message = Message(0, 0, 1, 1, transaction_id=777)
        assert message.transaction_id == 777

    def test_unique_ids(self):
        a = Message(0, 0, 1, 1)
        b = Message(0, 0, 1, 1)
        assert a.id != b.id

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Message(0, 0, 1, 0)
        with pytest.raises(ValueError):
            Message(0, -1, 1, 1)

    def test_latency_requires_delivery(self):
        message = Message(0, 0, 1, 1)
        assert message.latency() is None
        message.created_tick = 10
        message.delivered_tick = 35
        assert message.latency() == 25


class TestPacketization:
    def test_exact_split(self):
        message = Message(0, 0, 1, 8)
        packets = message.packetize(4)
        assert [p.num_flits for p in packets] == [4, 4]

    def test_remainder_packet(self):
        message = Message(0, 0, 1, 10)
        packets = message.packetize(4)
        assert [p.num_flits for p in packets] == [4, 4, 2]

    def test_single_packet(self):
        message = Message(0, 0, 1, 3)
        assert len(message.packetize(16)) == 1

    def test_double_packetize_rejected(self):
        message = Message(0, 0, 1, 4)
        message.packetize(2)
        with pytest.raises(RuntimeError):
            message.packetize(2)

    def test_invalid_max_size(self):
        with pytest.raises(ValueError):
            Message(0, 0, 1, 4).packetize(0)

    def test_packet_ids_sequential(self):
        message = Message(0, 0, 1, 9)
        packets = message.packetize(3)
        assert [p.id for p in packets] == [0, 1, 2]


class TestFlits:
    def test_head_tail_flags(self):
        packet = Message(0, 0, 1, 4).packetize(4)[0]
        flags = [(f.head, f.tail) for f in packet.flits]
        assert flags == [(True, False), (False, False), (False, False),
                         (False, True)]

    def test_single_flit_is_head_and_tail(self):
        packet = Message(0, 0, 1, 1).packetize(1)[0]
        flit = packet.flits[0]
        assert flit.head and flit.tail

    def test_flit_indices(self):
        packet = Message(0, 0, 1, 5).packetize(5)[0]
        assert [f.index for f in packet.flits] == [0, 1, 2, 3, 4]

    def test_head_tail_accessors(self):
        packet = Message(0, 0, 1, 3).packetize(3)[0]
        assert packet.head_flit is packet.flits[0]
        assert packet.tail_flit is packet.flits[-1]

    @pytest.mark.parametrize("num_flits", [1, 2, 7])
    def test_packet_builds_its_flits(self, num_flits):
        packet = Packet(Message(0, 0, 1, num_flits), 0, num_flits)
        assert len(packet.flits) == num_flits
        assert all(type(flit) is Flit for flit in packet.flits)
        assert all(flit.packet is packet for flit in packet.flits)
        assert [flit.head for flit in packet.flits].count(True) == 1
        assert [flit.tail for flit in packet.flits].count(True) == 1
        assert packet.flits[0].head and packet.flits[-1].tail

    def test_plain_record_defaults(self):
        packet = Message(0, 0, 1, 2).packetize(2)[0]
        flit = Flit(packet, 1, False, True)
        assert Flit.__slots__ == (
            "packet", "index", "head", "tail", "vc", "send_tick",
            "receive_tick",
        )
        assert not hasattr(flit, "__dict__")
        assert (flit.packet, flit.index, flit.head, flit.tail) == (
            packet, 1, False, True)
        assert flit.vc == 0
        assert flit.send_tick is None and flit.receive_tick is None
        flit.vc, flit.send_tick, flit.receive_tick = 3, 10, 25
        assert (flit.vc, flit.send_tick, flit.receive_tick) == (3, 10, 25)

    def test_repr_names_packet_position_and_vc(self):
        packet = Message(0, 0, 1, 3).packetize(3)[0]
        gid = packet.global_id
        packet.flits[1].vc = 2
        assert repr(packet.flits[0]) == f"Flit(pkt={gid}, i=0, H, vc=0)"
        assert repr(packet.flits[1]) == f"Flit(pkt={gid}, i=1, B, vc=2)"
        assert repr(packet.flits[2]) == f"Flit(pkt={gid}, i=2, T, vc=0)"
        single = Message(0, 0, 1, 1).packetize(1)[0]
        assert repr(single.flits[0]).endswith("i=0, HT, vc=0)")


class TestPacketState:
    def test_routing_scratch_space(self):
        packet = Message(0, 0, 1, 1).packetize(1)[0]
        packet.routing_state["mode"] = "minimal"
        assert packet.routing_state["mode"] == "minimal"

    def test_age(self):
        packet = Message(0, 3, 1, 1).packetize(1)[0]
        assert packet.age(100) == 0  # not yet injected
        packet.injection_tick = 40
        assert packet.age(100) == 60

    def test_source_destination_proxy(self):
        packet = Message(0, 3, 9, 1).packetize(1)[0]
        assert packet.source == 3
        assert packet.destination == 9

    def test_invalid_flit_count(self):
        with pytest.raises(ValueError):
            Packet(Message(0, 0, 1, 1), 0, 0)
