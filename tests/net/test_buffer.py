"""A router's input buffers: FIFO order, capacity enforcement and the
``input_queue_depth`` setting, on every packaged architecture.

Each input VC is one deque in the router's flat input tables; flits
arrive through ``receive_flit`` and leave through ``_pop_input_flit``.
"""

import pytest

from repro import Settings, Simulation
from repro.config.settings import SettingsError
from repro.net.buffer import BufferOverrunError
from repro.net.message import Message

from tests.conftest import small_torus_config

ARCHITECTURES = ("input_queued", "output_queued", "input_output_queued")


def build_router(architecture="input_queued", depth=4):
    config = small_torus_config()
    config["network"]["router"].update(
        architecture=architecture, input_queue_depth=depth
    )
    return Simulation(Settings.from_dict(config)).network.routers[5]


def make_flits(count, vc=1):
    message = Message(0, 0, 1, count)
    packet = message.packetize(count)[0]
    flits = [packet.flit(i) for i in range(count)]
    for flit in flits:
        flit.vc = vc
    return flits


def test_fifo_order():
    """Each input VC hands its flits back in arrival order."""
    for architecture in ARCHITECTURES:
        router = build_router(architecture)
        flits = make_flits(4)
        for flit in flits[:3]:
            router.receive_flit(2, flit)
        i = 2 * router.num_vcs + 1
        assert router.input_occupancy(2, 1) == 3
        assert router._occupied_inputs == {i}
        assert [router._pop_input_flit(i) for _ in range(3)] == flits[:3]
        assert router.input_occupancy(2, 1) == 0
        assert not router._occupied_inputs


def test_front_peeks_without_removing():
    """The routing stage reads the packet at an input VC's front and
    leaves its flits queued."""
    for architecture in ARCHITECTURES:
        router = build_router(architecture)
        flits = make_flits(2)
        for flit in flits:
            router.receive_flit(2, flit)
        i = 2 * router.num_vcs + 1
        router._update_input_vcs()
        assert router._in_packet[i] is flits[0].packet
        assert router._in_flits[i][0] is flits[0]
        assert router.input_occupancy(2, 1) == 2
        assert router._alloc_pending == [i]


def test_front_on_empty_is_none():
    """An input VC holding no flits has no front packet and no output VC."""
    for architecture in ARCHITECTURES:
        router = build_router(architecture)
        assert router._in_packet == [None] * (router.num_ports * router.num_vcs)
        assert set(router._in_out_port) == {-1}
        assert set(router._in_out_vc) == {-1}
        router._route_pending.append(2 * router.num_vcs + 1)
        router._update_input_vcs()
        assert router._in_packet[2 * router.num_vcs + 1] is None
        assert not router._alloc_pending


def test_overrun_raises():
    """A flit arriving at a full input VC names the router, port and VC."""
    for architecture in ARCHITECTURES:
        router = build_router(architecture, depth=2)
        flits = make_flits(3)
        router.receive_flit(2, flits[0])
        router.receive_flit(2, flits[1])
        with pytest.raises(BufferOverrunError) as error:
            router.receive_flit(2, flits[2])
        assert str(error.value) == (
            f"{router.full_name}.in2.vc1: buffer overrun (capacity 2)"
        )
        assert router.input_occupancy(2, 1) == 2
        assert router.input_occupancy(2, 0) == 0


def test_pop_empty_raises():
    router = build_router()
    with pytest.raises(IndexError):
        router._pop_input_flit(2 * router.num_vcs + 1)


def test_space_accounting():
    """Each input VC holds ``input_queue_depth`` flits, counted apart from
    the other VCs; a pop frees one slot and returns one credit upstream."""
    for architecture in ARCHITECTURES:
        router = build_router(architecture, depth=3)
        assert router.input_buffer_capacities(2) == [3] * router.num_vcs
        credit_out = router._credit_out[2]
        carried = credit_out.credits_carried
        flits = make_flits(3)
        for count, flit in enumerate(flits, 1):
            router.receive_flit(2, flit)
            assert router.input_occupancy(2, 1) == count
            assert router.input_occupancy(2, 0) == 0
        i = 2 * router.num_vcs + 1
        router._pop_input_flit(i)
        assert router.input_occupancy(2, 1) == 2
        assert credit_out.credits_carried == carried + 1
        router.receive_flit(2, make_flits(1)[0])
        assert router.input_occupancy(2, 1) == 3


def test_tail_pop_releases_output_vc():
    """Popping a packet's head counts its hop; popping its tail frees
    the output VC it claimed and resets the input VC for the next
    packet."""
    for architecture in ARCHITECTURES:
        router = build_router(architecture)
        flits = make_flits(3)
        for flit in flits:
            router.receive_flit(2, flit)
        i = 2 * router.num_vcs + 1
        router._update_input_vcs()
        router._allocate_vcs()
        owner_key = (router._in_out_port[i], router._in_out_vc[i])
        assert owner_key[0] >= 0 and owner_key[1] >= 0
        o = owner_key[0] * router.num_vcs + owner_key[1]
        owners = router._output_vc_owner
        assert owners[o] == i
        assert owners.count(-1) == len(owners) - 1
        packet = flits[0].packet
        hops = packet.hop_count
        popped, counts = [], []
        for _ in flits:
            popped.append(router._pop_input_flit(i))
            counts.append(packet.hop_count)
        # Counted once as the head leaves, not again on body and tail.
        assert counts == [hops + 1] * 3
        assert popped == flits
        assert all(flit.vc == owner_key[1] for flit in popped)
        assert set(owners) == {-1}
        assert router._in_packet[i] is None
        assert router._in_out_port[i] == -1 and router._in_out_vc[i] == -1
        assert not router._route_pending


def test_invalid_capacity():
    """``input_queue_depth: 0`` fails at build, naming the setting and
    the router."""
    for architecture in ARCHITECTURES:
        with pytest.raises(
            SettingsError, match=r"^network\.router0: input_queue_depth: "
        ):
            build_router(architecture, depth=0)


def test_input_queue_depth_must_be_an_int():
    """Input VCs are always finite: a null depth is refused at build."""
    for architecture in ARCHITECTURES:
        with pytest.raises(SettingsError, match=r"input_queue_depth"):
            build_router(architecture, depth=None)


def test_iteration_preserves_order():
    """Interleaved arrivals on two VCs of one port queue in arrival order,
    each in its own input VC."""
    for architecture in ARCHITECTURES:
        router = build_router(architecture, depth=8)
        first = make_flits(4, vc=0)
        second = make_flits(4, vc=1)
        for a, b in zip(first, second):
            router.receive_flit(2, a)
            router.receive_flit(2, b)
        i = 2 * router.num_vcs
        assert list(router._in_flits[i]) == first
        assert list(router._in_flits[i + 1]) == second
        assert router._occupied_inputs == {i, i + 1}
