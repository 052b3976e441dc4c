"""Cross-cutting integration properties: determinism, latency physics."""

import pytest

from repro import Settings, Simulation
from repro.configs import flow_control_config, latent_congestion_config
from repro.sanitize import attach_sanitizers
from tests.conftest import make_packet, run_config, small_torus_config

#: Configs whose routing reads packet ids: DOR rotates each packet's VC
#: order by its id (four VCs, two per dateline class), the Clos up-port
#: rotation starts at it.
SAME_CONFIG_CELLS = {
    "torus_dor_4vc": lambda: flow_control_config(
        num_vcs=4, message_size=4, injection_rate=0.3, warmup=100,
        window=200, seed=7),
    "clos_adaptive": lambda: latent_congestion_config(
        injection_rate=0.4, warmup=50, window=100, seed=7),
}


def _summary_and_digest(config):
    simulation = Simulation(Settings.from_dict(config))
    with attach_sanitizers(simulation, "det") as suite:
        results = simulation.run()
        suite.finish()
        digest = suite.report()["det"]["delivery_digest"]
    return results.summary(), digest


@pytest.mark.parametrize("cell", sorted(SAME_CONFIG_CELLS))
def test_same_config_runs_alike_after_unrelated_work(cell):
    """A run is a function of its configuration: a stray packet and a
    whole other simulation, made in the same process between two runs
    of one config, change neither the summary nor the delivery digest."""
    config = SAME_CONFIG_CELLS[cell]()
    first = _summary_and_digest(config)
    make_packet()
    Simulation(Settings.from_dict(small_torus_config())).run(max_time=500)
    assert _summary_and_digest(config) == first


def test_bitwise_deterministic_event_counts():
    """Two identical runs execute the exact same number of events."""
    a = Simulation(Settings.from_dict(small_torus_config()))
    a.run(max_time=200_000)
    b = Simulation(Settings.from_dict(small_torus_config()))
    b.run(max_time=200_000)
    assert a.simulator.executed_events == b.simulator.executed_events
    assert a.simulator.tick == b.simulator.tick
    lat_a = [r.latency for r in a.message_log.records]
    lat_b = [r.latency for r in b.message_log.records]
    assert lat_a == lat_b


def test_zero_load_latency_matches_physics():
    """At near-zero load, message latency approaches the sum of wire,
    router, and serialization delays -- no queueing."""
    config = small_torus_config(injection_rate=0.01)
    config["workload"]["applications"][0]["message_size"] = {
        "type": "constant", "size": 1}
    _sim, results = run_config(config)
    # Minimum possible: 2 terminal links (1 tick each) + up to 4 ring
    # hops (2 ticks each) + per-router core latency (2 ticks each).
    minimum = results.latency().minimum()
    assert minimum >= 1 + 1 + 2  # at least: two terminal links + a core
    # Mean should be close to the minimum at this load (no queueing).
    assert results.latency().mean() < 4 * minimum


def test_latency_grows_with_load():
    means = []
    for rate in (0.1, 0.5, 0.75):
        config = small_torus_config(injection_rate=rate)
        _sim, results = run_config(config)
        means.append(results.latency().mean())
    assert means[0] < means[1] < means[2]


def test_throughput_tracks_offered_below_saturation():
    for rate in (0.1, 0.3, 0.5):
        config = small_torus_config(injection_rate=rate)
        _sim, results = run_config(config)
        assert results.accepted_load() == pytest.approx(rate, abs=0.05)


def test_hop_count_measured_matches_topology_minimum():
    """Under DOR (minimal), measured hops == minimal hops + 1 (the
    destination router also counts a hop when ejecting)."""
    _sim, results = run_config(small_torus_config())
    network = _sim.network
    for record in results.records()[:200]:
        expected = network.minimal_hops(record.source, record.destination)
        for packet in record.packets:
            assert packet.hop_count == expected + 1
