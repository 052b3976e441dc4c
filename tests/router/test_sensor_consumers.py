"""Who reads the congestion sensor, and who feeds it.

A routing algorithm declares ``reads_congestion``; a router feeds its
sensor's delay line only when one of its engines reads it.  These
tests pin both directions of that contract: every packaged algorithm
that declares it never reads congestion really never queries the
sensor, the algorithms that do read it still see a fed, moving view,
and querying a sensor nothing feeds fails by name.
"""

from __future__ import annotations

import pytest

from repro import Settings, Simulation, factory, models
from repro.router.congestion import (
    CongestionSensor,
    CreditSensor,
    UnfedSensorError,
)
from repro.routing.base import RoutingAlgorithm
from tests.conftest import small_torus_config

#: Small network per topology (IQ routers from the torus workhorse).
TOPOLOGIES = {
    "torus": {"dimension_widths": [4, 4], "concentration": 1},
    "hyperx": {"dimension_widths": [4], "concentration": 2},
    "dragonfly": {"group_size": 4, "global_links": 1, "concentration": 1,
                  "num_vcs": 5},
    "folded_clos": {"half_radix": 2, "num_levels": 2},
}

#: Algorithm -> topology it runs on.
ALGORITHMS = {
    "torus_dimension_order": "torus",
    "torus_minimal_adaptive": "torus",
    "hyperx_dimension_order": "hyperx",
    "hyperx_valiant": "hyperx",
    "hyperx_ugal": "hyperx",
    "dragonfly_minimal": "dragonfly",
    "dragonfly_valiant": "dragonfly",
    "dragonfly_ugal": "dragonfly",
    "clos_deterministic": "folded_clos",
    "clos_adaptive": "folded_clos",
}


def simulation_for(algorithm: str) -> Simulation:
    config = small_torus_config(injection_rate=0.3)
    network = config["network"]
    topology = ALGORITHMS[algorithm]
    del network["dimension_widths"], network["concentration"]
    network.update(topology=topology, **TOPOLOGIES[topology])
    if algorithm == "torus_minimal_adaptive":
        network["num_vcs"] = 4  # escape pair + adaptive pair
    network["routing"]["algorithm"] = algorithm
    return Simulation(Settings.from_dict(config))


def non_readers():
    """Packaged algorithms declaring they never read congestion (test
    fixtures register subclasses of them too)."""
    models.load_all()
    registry = factory.GLOBAL_FACTORY
    classes = {name: registry.lookup(RoutingAlgorithm, name)
               for name in registry.names(RoutingAlgorithm)}
    return sorted(name for name, cls in classes.items()
                  if cls.__module__.startswith("repro.")
                  and not cls.reads_congestion)


def flit_hops(simulation: Simulation) -> int:
    return sum(c.flits_carried for c in simulation.network.flit_channels)


def test_every_declared_non_reader_is_covered():
    assert set(non_readers()) <= set(ALGORITHMS)
    assert "torus_dimension_order" in non_readers()


@pytest.mark.parametrize("algorithm", non_readers())
def test_declared_non_reader_never_queries_the_sensor(algorithm, monkeypatch):
    def forbidden(self, *args):
        raise AssertionError(f"{algorithm} queried {self.full_name}")

    monkeypatch.setattr(CongestionSensor, "status", forbidden)
    monkeypatch.setattr(CreditSensor, "status", forbidden)
    monkeypatch.setattr(CreditSensor, "raw_occupancy", forbidden)
    simulation = simulation_for(algorithm)
    simulation.run(max_time=600)
    assert flit_hops(simulation) > 100
    for router in simulation.network.routers:
        assert router._down_slots is None
        assert not router.sensor._pending  # nothing was ever fed


@pytest.mark.parametrize(
    "algorithm", ["clos_adaptive", "torus_minimal_adaptive", "hyperx_ugal"]
)
def test_congestion_readers_get_a_fed_delay_line(algorithm, monkeypatch):
    seen = []
    status = CreditSensor.status

    def recording(self, port, vc):
        value = status(self, port, vc)
        seen.append(value)
        return value

    monkeypatch.setattr(CreditSensor, "status", recording)
    simulation = simulation_for(algorithm)
    simulation.run(max_time=600)
    assert flit_hops(simulation) > 100
    for router in simulation.network.routers:
        slots = router._down_slots
        assert slots is not None
        # One slot per output VC o = port * num_vcs + vc, None on an
        # unwired port.
        assert len(slots) == router.num_ports * router.num_vcs
        for o, slot in enumerate(slots):
            assert (slot is None) == (not router.port_is_wired(o // router.num_vcs))
    # Queried, and the fed view moved off zero.
    assert seen and max(seen) > 0.0


def test_querying_an_unfed_sensor_raises_by_name():
    simulation = simulation_for("torus_dimension_order")
    sensor = simulation.network.routers[0].sensor
    with pytest.raises(UnfedSensorError, match="nothing feeds it"):
        sensor.status(1, 0)
    with pytest.raises(UnfedSensorError, match="reads_congestion"):
        sensor.raw_occupancy("downstream", 1, 0)
