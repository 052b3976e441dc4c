"""HyperX routing: DOR, Valiant phases, UGAL decisions."""

import pytest

from repro import Settings, factory, models
from repro.core.rng import RandomManager
from repro.core.simulator import Simulator
from repro.net.network import Network
from repro.router.congestion import SOURCE_OUTPUT
from repro.routing.base import RoutingError

from tests.conftest import make_packet


def build(widths=[4], concentration=2, num_vcs=2,
          routing="hyperx_dimension_order", bias=0.0, sensor_latency=1):
    models.load_all()
    settings = Settings.from_dict({
        "topology": "hyperx",
        "dimension_widths": widths,
        "concentration": concentration,
        "num_vcs": num_vcs,
        "channel_latency": 1,
        "router": {
            "architecture": "input_output_queued",
            "input_queue_depth": 8,
            "output_queue_depth": 8,
            "congestion_sensor": {
                "latency": sensor_latency,
                "granularity": "port",
                "source": "output",
            },
        },
        "interface": {},
        "routing": {"algorithm": routing, "ugal_bias": bias},
    })
    return factory.create(Network, "hyperx", Simulator(), "network", None,
                          settings, RandomManager(1))


class TestDimensionOrder:
    def test_direct_hop(self):
        network = build()
        packet = make_packet(0, 6, network=network)  # router 0 -> router 3
        candidates = network.routers[0].routing.respond(packet, 0, 0)
        assert {p for p, _v in candidates} == {network.port_for(0, 0, 3)}

    def test_ejection(self):
        network = build()
        packet = make_packet(0, 1, network=network)  # same router, terminal port 1
        candidates = network.routers[0].routing.respond(packet, 0, 0)
        assert {p for p, _v in candidates} == {1}

    def test_2d_dimension_order(self):
        network = build(widths=[3, 3], concentration=1)
        # (0,0) -> (2,2): dim 0 first.
        packet = make_packet(0, 8, network=network)
        candidates = network.routers[0].routing.respond(packet, 0, 0)
        assert {p for p, _v in candidates} == {network.port_for(0, 0, 2)}


class TestValiant:
    def test_vc_count_requirement(self):
        with pytest.raises(RoutingError):
            build(widths=[4, 4], num_vcs=2, routing="hyperx_valiant")

    def test_phase_transition(self):
        network = build(routing="hyperx_valiant", num_vcs=2)
        # Drive many packets; each must either go direct (degenerate
        # intermediate) or record phase state.
        algorithm = network.routers[0].routing
        saw_nonminimal = False
        for _ in range(32):
            packet = make_packet(0, 6, network=network)
            algorithm.respond(packet, 0, 0)
            if packet.non_minimal:
                saw_nonminimal = True
                assert packet.routing_state == 0
                assert packet.intermediate not in (0, 3)
        assert saw_nonminimal

    def test_hop_vc_discipline(self):
        network = build(routing="hyperx_valiant", num_vcs=2)
        algorithm = network.routers[0].routing
        packet = make_packet(0, 6, network=network)
        candidates = algorithm.respond(packet, 0, 0)
        assert all(vc == 0 for _p, vc in candidates)  # first hop: VC 0
        packet.hop_count = 1
        # At any second-hop router the VC must be 1.
        intermediate = packet.intermediate if packet.non_minimal else 1
        algorithm2 = network.routers[intermediate].routing
        candidates = algorithm2.respond(
            packet, network.concentration, 0  # a router-side input port
        )
        if not candidates[0][0] < network.concentration:  # not ejection
            assert all(vc == 1 for _p, vc in candidates)


class TestUgal:
    def test_minimal_when_uncongested(self):
        network = build(routing="hyperx_ugal", num_vcs=2)
        algorithm = network.routers[0].routing
        minimal = 0
        for _ in range(32):
            packet = make_packet(0, 6, network=network)
            algorithm.respond(packet, 0, 0)
            if not packet.non_minimal:
                minimal += 1
        # q_min = q_val = 0 -> minimal always wins the comparison.
        assert minimal == 32

    def test_diverts_when_minimal_port_congested(self):
        network = build(routing="hyperx_ugal", num_vcs=2, sensor_latency=1)
        router = network.routers[0]
        sim = router.simulator
        min_port = network.port_for(0, 0, 3)

        def congest(event):
            # Saturate the minimal port's output queue (both VCs).
            router.sensor.record(SOURCE_OUTPUT, min_port, 0, +8)
            router.sensor.record(SOURCE_OUTPUT, min_port, 1, +8)

        outcomes = []

        def check(event):
            algorithm = router.routing
            for _ in range(64):
                packet = make_packet(0, 6, network=network)
                algorithm.respond(packet, 0, 0)
                outcomes.append(packet.non_minimal)

        sim.call_at(0, congest, epsilon=1)
        sim.call_at(10, check)
        sim.run()
        assert any(outcomes), "UGAL never took the Valiant path"

    def test_bias_suppresses_diversion(self):
        network = build(routing="hyperx_ugal", num_vcs=2, bias=1000.0)
        router = network.routers[0]
        sim = router.simulator
        min_port = network.port_for(0, 0, 3)

        def congest(event):
            router.sensor.record(SOURCE_OUTPUT, min_port, 0, +8)
            router.sensor.record(SOURCE_OUTPUT, min_port, 1, +8)

        outcomes = []

        def check(event):
            algorithm = router.routing
            for _ in range(32):
                packet = make_packet(0, 6, network=network)
                algorithm.respond(packet, 0, 0)
                outcomes.append(packet.non_minimal)

        sim.call_at(0, congest, epsilon=1)
        sim.call_at(10, check)
        sim.run()
        assert not any(outcomes)

    def test_decision_only_at_source_router(self):
        network = build(routing="hyperx_ugal", num_vcs=2)
        # A packet arriving at a transit router (non-terminal input)
        # without UGAL state routes minimally and records no decision.
        packet = make_packet(0, 6, network=network)
        transit = network.routers[1]
        algorithm = transit.routing
        candidates = algorithm.respond(packet, network.concentration, 0)
        assert candidates
        assert packet.routing_state is None
