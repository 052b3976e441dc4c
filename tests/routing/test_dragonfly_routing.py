"""Dragonfly routing: minimal l-g-l paths, Valiant groups, UGAL."""

import pytest

from repro import Settings, factory, models
from repro.core.rng import RandomManager
from repro.core.simulator import Simulator
from repro.net.network import Network
from repro.routing.base import RoutingError

from tests.conftest import make_packet


def build(group_size=4, global_links=1, concentration=1, num_vcs=5,
          routing="dragonfly_minimal"):
    models.load_all()
    settings = Settings.from_dict({
        "topology": "dragonfly",
        "group_size": group_size,
        "global_links": global_links,
        "concentration": concentration,
        "num_vcs": num_vcs,
        "channel_latency": 1,
        "router": {"architecture": "input_queued", "input_queue_depth": 8},
        "interface": {},
        "routing": {"algorithm": routing},
    })
    return factory.create(Network, "dragonfly", Simulator(), "network",
                          None, settings, RandomManager(1))


def walk_path(network, src, dst, max_hops=8):
    """Follow first-candidate routing from src to dst; returns hops."""
    packet = make_packet(src, dst, network=network)
    router = network.routers[network.terminal_router(src)]
    input_port = network.terminal_port(src)
    hops = 0
    while True:
        candidates = router.routing.respond(packet, input_port, 0)
        port = candidates[0][0]
        channel = router.output_channel(port)
        nxt = channel.sink
        if nxt in network.interfaces:
            assert nxt.interface_id == dst
            return hops
        packet.hop_count += 1
        hops += 1
        input_port = channel.sink_port
        router = nxt
        if hops > max_hops:
            pytest.fail(f"path {src}->{dst} did not converge")


class TestMinimal:
    def test_local_delivery(self):
        network = build()
        assert walk_path(network, 0, 1) == 1  # same group, one local hop

    def test_same_router_delivery(self):
        network = build(concentration=2)
        assert walk_path(network, 0, 1) == 0

    def test_global_paths_are_at_most_lgl(self):
        network = build()
        for dst in range(4, network.num_terminals):
            hops = walk_path(network, 0, dst)
            assert hops <= 3
            assert hops == network.minimal_hops(0, dst)

    def test_every_pair_routes(self):
        network = build(group_size=2, global_links=1)
        for src in range(network.num_terminals):
            for dst in range(network.num_terminals):
                if src != dst:
                    walk_path(network, src, dst)

    def test_vc_requirement(self):
        with pytest.raises(RoutingError):
            build(num_vcs=2)


class TestValiantAndUgal:
    def test_valiant_paths_converge(self):
        network = build(routing="dragonfly_valiant", num_vcs=5)
        for dst in range(4, network.num_terminals, 3):
            hops = walk_path(network, 0, dst, max_hops=8)
            assert hops <= 5

    def test_valiant_vc_requirement(self):
        with pytest.raises(RoutingError):
            build(routing="dragonfly_valiant", num_vcs=3)

    def test_ugal_uncongested_goes_minimal(self):
        network = build(routing="dragonfly_ugal", num_vcs=5)
        source_router = network.routers[0]
        algorithm = source_router.routing
        for _ in range(16):
            packet = make_packet(0, 17, network=network)
            algorithm.respond(packet, 0, 0)
            assert not packet.non_minimal

    def test_ugal_paths_converge(self):
        network = build(routing="dragonfly_ugal", num_vcs=5)
        for dst in range(4, network.num_terminals, 2):
            assert walk_path(network, 0, dst, max_hops=8) <= 5
