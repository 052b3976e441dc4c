"""Torus routing algorithms: DOR order, datelines, adaptivity."""

import pytest

from repro import Settings, factory, models
from repro.core.rng import RandomManager
from repro.core.simulator import Simulator
from repro.net.network import Network
from repro.routing.base import RoutingError

from tests.conftest import make_packet


def build(widths, num_vcs=2, routing="torus_dimension_order",
          concentration=1):
    models.load_all()
    settings = Settings.from_dict({
        "topology": "torus",
        "dimension_widths": widths,
        "concentration": concentration,
        "num_vcs": num_vcs,
        "channel_latency": 1,
        "router": {"architecture": "input_queued", "input_queue_depth": 4},
        "interface": {},
        "routing": {"algorithm": routing},
    })
    return factory.create(Network, "torus", Simulator(), "network", None,
                          settings, RandomManager(1))


def route_at(network, router_id, src, dst, input_port=0, input_vc=0):
    packet = make_packet(src, dst, network=network)
    router = network.routers[router_id]
    return packet, router.routing.respond(packet, input_port, input_vc)


class TestDimensionOrder:
    def test_resolves_dimension_zero_first(self):
        network = build([4, 4])
        # src router 0 = (0,0); dst router (2,3) = id 14.
        _packet, candidates = route_at(network, 0, 0, 14)
        ports = {port for port, _vc in candidates}
        assert ports == {network.port_for(0, +1)}

    def test_second_dimension_after_first_resolved(self):
        network = build([4, 4])
        # router (2, 0) = id 2 routing to (2, 3) = wrap backwards in dim 1.
        _packet, candidates = route_at(network, 2, 0, 14)
        ports = {port for port, _vc in candidates}
        assert ports == {network.port_for(1, -1)}

    def test_shortest_direction(self):
        network = build([8])
        _p, plus = route_at(network, 0, 0, 3)   # 3 forward vs 5 back
        assert {p for p, _v in plus} == {network.port_for(0, +1)}
        _p, minus = route_at(network, 0, 0, 6)  # 2 back vs 6 forward
        assert {p for p, _v in minus} == {network.port_for(0, -1)}

    def test_ejection_at_destination_router(self):
        network = build([4, 4], concentration=2)
        _p, candidates = route_at(network, 3, 0, 7)  # terminal 7 -> router 3
        ports = {port for port, _vc in candidates}
        assert ports == {1}  # terminal port 7 % 2

    def test_dateline_vc_class_on_wrap_hop(self):
        network = build([4], num_vcs=2)
        # Router 3 -> dst router 0: the +1 hop wraps; must use class 1.
        packet, candidates = route_at(network, 3, 3, 0)
        assert all(vc % 2 == 1 for _port, vc in candidates)

    def test_no_dateline_class_before_wrap(self):
        network = build([4], num_vcs=2)
        packet, candidates = route_at(network, 0, 0, 2)
        assert all(vc % 2 == 0 for _port, vc in candidates)

    def test_class1_persists_after_crossing(self):
        network = build([8], num_vcs=2)
        packet = make_packet(6, 1, network=network)
        # Hop 1: router 6 -> 7 (no wrap yet, class 0).
        candidates = network.routers[6].routing.respond(packet, 0, 0)
        assert all(vc % 2 == 0 for _p, vc in candidates)
        # Hop 2: router 7 -> 0 wraps: class 1.
        candidates = network.routers[7].routing.respond(packet, 1, 0)
        assert all(vc % 2 == 1 for _p, vc in candidates)
        # Hop 3: router 0 -> 1, already crossed: stays class 1.
        candidates = network.routers[0].routing.respond(packet, 1, 0)
        assert all(vc % 2 == 1 for _p, vc in candidates)

    def test_injection_vcs_are_class0(self):
        from repro.routing.torus import TorusDimensionOrderRouting
        assert TorusDimensionOrderRouting.injection_vcs(4) == [0, 2]

    def test_odd_vc_count_rejected(self):
        with pytest.raises(RoutingError):
            build([4], num_vcs=3)


class TestMinimalAdaptive:
    def test_profitable_dimensions_offered(self):
        network = build([4, 4], num_vcs=4, routing="torus_minimal_adaptive")
        # (0,0) to (1,1): both dims profitable.
        dst = 1 + 1 * 4
        _p, candidates = route_at(network, 0, 0, dst)
        ports = {port for port, _vc in candidates}
        assert network.port_for(0, +1) in ports
        assert network.port_for(1, +1) in ports

    def test_escape_candidates_present_and_last(self):
        network = build([4, 4], num_vcs=4, routing="torus_minimal_adaptive")
        dst = 1 + 1 * 4
        _p, candidates = route_at(network, 0, 0, dst)
        # The final candidates must be escape-class (lower half) VCs on
        # the DOR port.
        escape = [c for c in candidates if c[1] < 2]
        assert escape
        assert candidates[-1] in escape
        assert all(c[0] == network.port_for(0, +1) for c in escape)

    def test_adaptive_vcs_in_upper_half(self):
        network = build([4, 4], num_vcs=4, routing="torus_minimal_adaptive")
        dst = 1 + 1 * 4
        _p, candidates = route_at(network, 0, 0, dst)
        adaptive = [c for c in candidates if c[1] >= 2]
        assert all(vc in (2, 3) for _port, vc in adaptive)

    def test_vc_count_constraint(self):
        with pytest.raises(RoutingError):
            build([4], num_vcs=2, routing="torus_minimal_adaptive")

    def test_delivery_end_to_end(self):
        """Adaptive routing on a busy torus delivers everything."""
        from tests.conftest import run_config, small_torus_config

        config = small_torus_config()
        config["network"]["num_vcs"] = 4
        config["network"]["routing"]["algorithm"] = "torus_minimal_adaptive"
        _sim, results = run_config(config)
        assert results.drained
        assert results.delivered_fraction() == 1.0
