"""RoutingAlgorithm.respond() validation (§IV-D error detection)."""

import pytest

from repro import Settings, Simulation, factory, models
from repro.core.rng import RandomManager
from repro.core.simulator import Simulator
from repro.net.network import Network
from repro.routing.base import RoutingAlgorithm, RoutingError
from repro.routing.chain import ChainRouting

from tests.conftest import make_packet


class ScriptedRouting(RoutingAlgorithm):
    """Returns whatever the test tells it to."""

    response = []

    def route(self, packet, input_port, input_vc):
        return list(type(self).response)


def build_chain_with(routing_cls):
    models.load_all()
    # Register under a unique name per test run.
    name = f"scripted_{id(routing_cls)}"
    factory.GLOBAL_FACTORY.register(RoutingAlgorithm, name)(routing_cls)
    routing_cls.topology = "parking_lot"
    settings = Settings.from_dict({
        "topology": "parking_lot",
        "length": 2,
        "concentration": 1,
        "num_vcs": 2,
        "channel_latency": 1,
        "router": {"architecture": "input_queued", "input_queue_depth": 4},
        "interface": {},
        "routing": {"algorithm": name},
    })
    return factory.create(Network, "parking_lot", Simulator(), "network",
                          None, settings, RandomManager(1))


def test_empty_response_rejected():
    class Empty(ScriptedRouting):
        response = []

    network = build_chain_with(Empty)
    algorithm = network.routers[0].routing
    with pytest.raises(RoutingError, match="no route"):
        algorithm.respond(make_packet(), 0, 0)


def test_out_of_range_port_rejected():
    class BadPort(ScriptedRouting):
        response = [(99, 0)]

    network = build_chain_with(BadPort)
    algorithm = network.routers[0].routing
    with pytest.raises(RoutingError, match="out of range"):
        algorithm.respond(make_packet(), 0, 0)


def test_unwired_port_rejected():
    """'Traffic that attempts to target an unused router output port is
    rejected' (§IV-D) -- router 0's down-chain port is unwired."""

    class Unwired(ScriptedRouting):
        response = None  # set below

    network = build_chain_with(Unwired)
    Unwired.response = [(network.down_port, 0)]
    algorithm = network.routers[0].routing
    with pytest.raises(RoutingError, match="unused output port"):
        algorithm.respond(make_packet(), 0, 0)


def test_unregistered_vc_rejected():
    """Routing outputs are checked against the VCs registered to the
    algorithm (§IV-D)."""

    class WrongVc(ScriptedRouting):
        response = None

    network = build_chain_with(WrongVc)
    WrongVc.response = [(network.up_port, 1)]
    algorithm = network.routers[0].routing
    algorithm.register_vcs([0])  # restrict to VC 0
    with pytest.raises(RoutingError, match="not registered"):
        algorithm.respond(make_packet(), 0, 0)


class OneShotChainRouting(ChainRouting):
    """Chain routing that hands out a generator instead of a sequence."""

    def route(self, packet, input_port, input_vc):
        return (c for c in super().route(packet, input_port, input_vc))


def test_one_shot_iterator_response_rejected():
    """Validating a generator consumes it, so VC allocation would find no
    candidates: the network stalled, delivering nothing, with no error."""
    if "one_shot_chain" not in factory.names(RoutingAlgorithm):
        factory.register(RoutingAlgorithm, "one_shot_chain")(OneShotChainRouting)
    settings = Settings.from_dict({
        "network": {
            "topology": "parking_lot", "length": 3, "concentration": 1,
            "num_vcs": 1, "channel_latency": 1,
            "router": {"architecture": "input_queued"},
            "routing": {"algorithm": "one_shot_chain"},
        },
        "workload": {"applications": [{
            "type": "blast", "injection_rate": 0.1,
            "warmup_duration": 100, "generate_duration": 500,
            "traffic": {"type": "uniform_random"},
            "message_size": {"type": "constant", "size": 1},
        }]},
    })
    with pytest.raises(RoutingError, match="OneShotChainRouting.*one-shot"):
        Simulation(settings).run(max_time=5000)


def test_register_vcs_bounds_checked():
    class Fine(ScriptedRouting):
        response = None

    network = build_chain_with(Fine)
    algorithm = network.routers[0].routing
    with pytest.raises(RoutingError):
        algorithm.register_vcs([7])


def test_valid_response_passes_and_caches():
    class Fine(ScriptedRouting):
        response = None

    network = build_chain_with(Fine)
    Fine.response = [(network.up_port, 0), (network.up_port, 1)]
    algorithm = network.routers[0].routing
    first = algorithm.respond(make_packet(), 0, 0)
    second = algorithm.respond(make_packet(), 0, 0)
    assert first == second == Fine.response


def test_congestion_helpers():
    class Fine(ScriptedRouting):
        response = None

    network = build_chain_with(Fine)
    Fine.response = [(network.up_port, 0)]
    algorithm = network.routers[0].routing
    value = algorithm.congestion(network.up_port, 0)
    assert value == 0.0
    assert algorithm.port_congestion(network.up_port, [0, 1]) == 0.0
    assert algorithm.port_congestion(network.up_port, []) == 0.0
