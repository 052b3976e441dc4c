"""Golden delivery digests for the in-core pipeline FIFO.

A flit that wins the crossbar (IQ, IOQ) or is committed to an output
queue (OQ) spends ``core_latency`` ticks in the router core.  That
traversal used to be one engine event per flit (``_core_arrival`` at
``EPS_PIPELINE``); it is now an entry in ``Router._core_fifo`` that the
router's own step lands.  The constants below were recorded from the
one-event-per-flit routers at the last commit that had them (e5c8388),
so they state independently *which item lands on which channel at which
(tick, epsilon)* for every architecture, for ``core_latency`` 0 (arrival
later in the grant tick, consumed by the next step), 1 and 5, and for a
core clock slower than the tick (arrivals between two core edges).

No config exposes the core clock period (the packaged networks clock the
core at one tick), so the period-2 cases re-clock the routers after
construction.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import Settings, Simulation
from repro.core.clock import Clock
from repro.core.simulator import Simulator
from repro.core.wheel import PhaseWheel
from repro.net.channel import _LandingWheel, _Link
from repro.net.interface import Interface
from repro.router.base import Router
from repro.sanitize import attach_sanitizers

from tests.conftest import small_torus_config

ARCHITECTURES = {
    "iq": {"architecture": "input_queued"},
    "oq": {"architecture": "output_queued", "output_queue_depth": 8},
    "ioq": {"architecture": "input_output_queued", "output_queue_depth": 8},
}

#: (architecture, core_latency, core period) -> (delivery digest, deliveries)
PINS = {
    ("iq", 0, 1): ("5d4e84a5", 13816),
    ("iq", 0, 2): ("7d08f726", 14576),
    ("iq", 1, 1): ("5d4e84a5", 13816),
    ("iq", 1, 2): ("7d08f726", 14576),
    ("iq", 5, 1): ("f79a0472", 14256),
    ("iq", 5, 2): ("8e0bb5a8", 14880),
    ("oq", 0, 1): ("59d0bbbe", 13792),
    ("oq", 0, 2): ("eedf0a3e", 14256),
    ("oq", 1, 1): ("59d0bbbe", 13792),
    ("oq", 1, 2): ("eedf0a3e", 14256),
    ("oq", 5, 1): ("4ff77561", 14256),
    ("oq", 5, 2): ("ef6b3ed3", 14784),
    ("ioq", 0, 1): ("e563a2a6", 13816),
    ("ioq", 0, 2): ("8d597ff3", 14576),
    ("ioq", 1, 1): ("e563a2a6", 13816),
    ("ioq", 1, 2): ("8d597ff3", 14576),
    ("ioq", 5, 1): ("56db4e5c", 14256),
    ("ioq", 5, 2): ("0d47f853", 14880),
}


def _simulation(architecture: str, core_latency: int, period: int) -> Simulation:
    config = small_torus_config(warmup_duration=100, generate_duration=400)
    config["network"]["router"] = dict(
        ARCHITECTURES[architecture], input_queue_depth=8,
        core_latency=core_latency,
    )
    simulation = Simulation(Settings.from_dict(config))
    for router in simulation.network.routers:
        router.core_clock = Clock(simulation.simulator, period)
        router._core_period1 = period == 1
    return simulation


@pytest.mark.parametrize("architecture,core_latency,period", sorted(PINS))
def test_delivery_digest_matches_per_flit_event_pins(
    architecture, core_latency, period
):
    simulation = _simulation(architecture, core_latency, period)
    with attach_sanitizers(simulation, "det") as suite:
        results = simulation.run(max_time=20_000)
        suite.finish()
        det = suite.report()["det"]
    assert results.drained
    assert (det["delivery_digest"], det["deliveries"]) == PINS[
        architecture, core_latency, period
    ]


@pytest.mark.parametrize("architecture", sorted(ARCHITECTURES))
def test_core_traversal_schedules_no_engine_event(architecture, monkeypatch):
    """Engine census: routers, links and interfaces schedule *no* engine
    event -- core traversal waits in ``_core_fifo``, landings and steps
    ride the two phase wheels -- so a busy tick costs the engine two
    wheel events plus whatever the workload schedules."""
    census = Counter()
    wheel_ticks = Counter()
    real_call_at = Simulator.call_at

    def counting_call_at(self, time, handler, data=None, epsilon=0):
        owner = getattr(handler, "__self__", None)
        census[type(owner), handler.__name__] += 1
        if isinstance(owner, PhaseWheel):
            wheel_ticks[time] += 1
        return real_call_at(self, time, handler, data, epsilon)

    monkeypatch.setattr(Simulator, "call_at", counting_call_at)
    simulation = _simulation(architecture, core_latency=5, period=1)
    results = simulation.run(max_time=20_000)
    assert results.drained
    assert sum(r.flits_sent for r in simulation.network.routers) > 1000
    assert not [
        (owner, name) for owner, name in census
        if issubclass(owner, (Router, _Link, Interface))
    ]
    assert {
        (owner, name) for owner, name in census
        if issubclass(owner, PhaseWheel)
    } == {(PhaseWheel, "_fire"), (_LandingWheel, "_fire")}
    assert max(wheel_ticks.values()) == 2
    assert simulation.simulator.executed_events < 4 * len(wheel_ticks)
    assert not hasattr(Router, "_core_arrival")
    assert all(not router._core_fifo for router in simulation.network.routers)
