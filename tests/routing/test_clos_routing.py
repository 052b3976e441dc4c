"""Folded-Clos routing: up*/down* correctness, adaptive port ordering."""

import pytest

from repro import Settings, factory, models
from repro.core.rng import RandomManager
from repro.core.simulator import Simulator
from repro.net.network import Network
from repro.router.congestion import SOURCE_OUTPUT

from tests.conftest import make_packet


def build(half_radix=2, num_levels=3, routing="clos_adaptive",
          sensor_latency=1):
    models.load_all()
    settings = Settings.from_dict({
        "topology": "folded_clos",
        "half_radix": half_radix,
        "num_levels": num_levels,
        "num_vcs": 1,
        "channel_latency": 1,
        "router": {
            "architecture": "output_queued",
            "input_queue_depth": 8,
            "congestion_sensor": {
                "latency": sensor_latency,
                "granularity": "port",
                "source": "output",
            },
        },
        "interface": {},
        "routing": {"algorithm": routing},
    })
    return factory.create(Network, "folded_clos", Simulator(), "network",
                          None, settings, RandomManager(1))


def respond_at(network, level, index, src, dst, input_port=0):
    packet = make_packet(src, dst, network=network)
    router = network.router_at(level, index)
    return packet, router.routing.respond(packet, input_port, 0)


class TestUpDown:
    def test_leaf_ejects_local_terminal(self):
        network = build()
        # Terminal 1 lives on leaf router 0 at down port 1.
        _p, candidates = respond_at(network, 0, 0, 0, 1)
        assert candidates == ((1, 0),)

    def test_leaf_goes_up_for_remote_terminal(self):
        network = build(half_radix=2)
        _p, candidates = respond_at(network, 0, 0, 0, 7)
        ports = {port for port, _vc in candidates}
        assert ports <= {2, 3}  # the two up ports
        assert len(ports) == 2  # adaptive offers both

    def test_descent_follows_destination_digits(self):
        network = build(half_radix=2, num_levels=3)
        # Top-level routers are ancestors of everything; the down port
        # is the destination's digit at that level.
        for dst in range(8):
            digits = network.terminal_digits(dst)
            _p, candidates = respond_at(network, 2, 0, 0, dst)
            assert candidates == ((digits[2], 0),)

    def test_mid_level_descends_when_ancestor(self):
        """Every (level, index, terminal) at half_radix 2 and 3 with 2 to
        4 levels, against the digit-list reference ``is_ancestor`` /
        ``terminal_digits``: an ancestor descends on the destination's
        digit at its level, any other router offers only its up ports."""
        for half_radix in (2, 3):
            for num_levels in (2, 3, 4):
                network = build(half_radix=half_radix, num_levels=num_levels)
                up_ports = set(range(half_radix, 2 * half_radix))
                for level in range(num_levels):
                    for index in range(network.routers_per_level):
                        for dst in range(half_radix**num_levels):
                            _p, candidates = respond_at(
                                network, level, index, 0, dst)
                            where = (half_radix, num_levels, level, index, dst)
                            if network.is_ancestor(level, index, dst):
                                digit = network.terminal_digits(dst)[level]
                                assert candidates == ((digit, 0),), where
                            else:
                                ports = [port for port, _vc in candidates]
                                assert sorted(ports) == sorted(up_ports), where

    def test_full_path_walk(self):
        """Walk a packet hop by hop from source to destination."""
        network = build(half_radix=2, num_levels=3)
        src, dst = 0, 7
        packet = make_packet(src, dst, network=network)
        router = network.router_at(0, 0)
        hops = 0
        while True:
            candidates = router.routing.respond(packet, 0, 0)
            port = candidates[0][0]
            channel = router.output_channel(port)
            nxt = channel.sink
            if nxt in network.interfaces:
                assert nxt.interface_id == dst
                break
            packet.hop_count += 1
            router = nxt
            hops += 1
            assert hops <= 8, "routing is not converging"
        assert hops == network.minimal_hops(src, dst)


class TestAdaptiveOrdering:
    def test_least_congested_first(self):
        network = build(half_radix=2, sensor_latency=1)
        leaf = network.router_at(0, 0)
        sim = leaf.simulator
        # Make up port 2 congested, then query after the latency.
        def congest(event):
            leaf.sensor.record(SOURCE_OUTPUT, 2, 0, +6)

        seen = {}

        def check(event):
            packet = make_packet(0, 7, network=network)
            candidates = leaf.routing.respond(packet, 0, 0)
            seen["first"] = candidates[0][0]

        sim.call_at(0, congest, epsilon=1)
        sim.call_at(10, check)
        sim.run()
        assert seen["first"] == 3  # the uncongested up port

    def test_stale_view_ignores_recent_congestion(self):
        """With a long sensing latency the routing engine cannot see a
        fresh hotspot -- the mechanism behind case study A."""
        network = build(half_radix=2, sensor_latency=100)
        leaf = network.router_at(0, 0)
        sim = leaf.simulator

        def congest(event):
            leaf.sensor.record(SOURCE_OUTPUT, 2, 0, +6)

        firsts = set()

        def check(event):
            for trial in range(8):
                packet = make_packet(0, 7, network=network)
                candidates = leaf.routing.respond(packet, 0, 0)
                firsts.add(candidates[0][0])

        sim.call_at(0, congest, epsilon=1)
        sim.call_at(10, check)
        sim.run()
        # The stale view sees both ports as equal: the rotation spreads
        # choices over both instead of avoiding the hot one.
        assert firsts == {2, 3}


class TestDeterministic:
    def test_same_pair_same_path(self):
        network = build(routing="clos_deterministic")
        first = respond_at(network, 0, 0, 0, 7)[1]
        second = respond_at(network, 0, 0, 0, 7)[1]
        assert first[0] == second[0]

    def test_pairs_spread_over_up_ports(self):
        network = build(half_radix=2, routing="clos_deterministic")
        firsts = set()
        for dst in range(4, 8):
            for src in range(4):
                candidates = respond_at(network, 0, 0, src, dst)[1]
                firsts.add(candidates[0][0])
        assert firsts == {2, 3}
