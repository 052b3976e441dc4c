"""One compatibility declaration, two readers that agree.

Each routing algorithm names the topology it runs on in its
``topology`` class attribute.  Building a ``Network`` and lint rule
C006 both read it, so over every packaged (topology, algorithm) pair
C006 fires exactly when the build raises ``NetworkError``.
"""

from __future__ import annotations

import itertools

import pytest

from repro import Settings, factory, models
from repro.core.rng import RandomManager
from repro.core.simulator import Simulator
from repro.lint import lint_config_dict
from repro.net.network import Network, NetworkError
from repro.routing.base import RoutingAlgorithm
from repro.routing.torus import TorusDimensionOrderRouting

models.load_all()

#: The smallest network of each packaged topology.  8 VCs satisfy every
#: packaged algorithm's VC discipline, so a compatible pair builds.
TOPOLOGY_KEYS = {
    "torus": {"dimension_widths": [3], "concentration": 1},
    "hyperx": {"dimension_widths": [3], "concentration": 1},
    "folded_clos": {"half_radix": 2, "num_levels": 2},
    "dragonfly": {"group_size": 2, "global_links": 1, "concentration": 1},
    "parking_lot": {"length": 2, "concentration": 1},
}


def packaged(base: type) -> list:
    return [name for name in factory.names(base)
            if factory.lookup(base, name).__module__.startswith("repro.")]


PACKAGED = packaged(RoutingAlgorithm)


def network_config(topology: str, algorithm: str) -> dict:
    return {
        "topology": topology,
        **TOPOLOGY_KEYS[topology],
        "num_vcs": 8,
        "channel_latency": 1,
        "router": {"architecture": "input_queued", "input_queue_depth": 4},
        "interface": {},
        "routing": {"algorithm": algorithm},
    }


def build_raises(topology: str, algorithm: str) -> bool:
    try:
        factory.create(Network, topology, Simulator(), "network", None,
                       Settings.from_dict(network_config(topology, algorithm)),
                       RandomManager(1))
    except NetworkError:
        return True
    return False


def c006_fires(topology: str, algorithm: str) -> bool:
    config = {
        "network": network_config(topology, algorithm),
        "workload": {"applications": [{
            "type": "blast", "injection_rate": 0.1,
            "warmup_duration": 10, "generate_duration": 10,
            "traffic": {"type": "uniform_random"},
            "message_size": {"type": "constant", "size": 1},
        }]},
    }
    report = lint_config_dict(config, graph=False)
    return any(f.rule_id == "C006" for f in report.findings)


def test_every_packaged_topology_and_algorithm_is_covered():
    assert sorted(TOPOLOGY_KEYS) == packaged(Network)
    assert {factory.lookup(RoutingAlgorithm, name).topology
            for name in PACKAGED} == set(TOPOLOGY_KEYS)


@pytest.mark.parametrize(
    "topology,algorithm", list(itertools.product(sorted(TOPOLOGY_KEYS), PACKAGED)))
def test_c006_fires_exactly_when_the_build_refuses(topology, algorithm):
    declared = factory.lookup(RoutingAlgorithm, algorithm).topology
    refused = build_raises(topology, algorithm)
    assert refused == (declared != topology)
    assert c006_fires(topology, algorithm) == refused


def test_user_subclass_inherits_the_declaration():
    name = "torus_dor_subclass_declaring_nothing"

    class Subclass(TorusDimensionOrderRouting):
        pass

    assert "topology" not in vars(Subclass)
    factory.register(RoutingAlgorithm, name)(Subclass)
    assert not build_raises("torus", name)
    assert not c006_fires("torus", name)
    assert build_raises("hyperx", name)
    assert c006_fires("hyperx", name)
