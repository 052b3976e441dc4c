"""Differential test: phase wheels against one engine event per registrant.

The phase wheels (``repro.core.wheel``) replaced a form in which every
busy link's landing and every awake device's step was its own engine
event.  That form survives here only, as the reference: ``PhaseWheel.add``
is monkeypatched to schedule one ``call_at`` event per registrant, each
draining just that registrant.  A registrant enters a wheel's list
exactly where its event would enter the engine's ``(tick, epsilon)``
bucket and both are FIFO, so the two forms must invoke the same handlers
in the same total order -- hence byte-identical message logs -- from
several times fewer engine events.
"""

from __future__ import annotations

import itertools
import json

import pytest

import repro.net.message as message_mod
import repro.net.packet as packet_mod
from repro import Settings, Simulation
from repro.configs import credit_accounting_config, latent_congestion_config
from repro.core.clock import Clock
from repro.core.wheel import PhaseWheel
from repro.net.channel import Channel, CreditChannel
from repro.net.interface import StandardInterface
from repro.net.packet import preserve_packet_ids
from repro.router.base import Router
from repro.router.input_queued import InputQueuedRouter
from repro.sanitize import attach_sanitizers

from tests.conftest import small_torus_config

#: every handler a wheel runs, by the class that defines it.
HANDLERS = [
    (Channel, "_deliver_item"),
    (CreditChannel, "_deliver_item"),
    (Router, "_step"),
    (InputQueuedRouter, "_step"),
    (StandardInterface, "_inject_step"),
]


def per_event_add(wheel, tick, registrant):
    """The retired scheduling: one engine event per registrant."""
    wheel.simulator.call_at(
        tick, lambda event: wheel._drain((registrant,), event), None,
        wheel.epsilon,
    )


def _observe(config, max_time, core_period, reference: bool) -> dict:
    calls = []

    def recording(cls, name):
        original = cls.__dict__[name]

        def handler(component, *args):
            simulator = component.simulator
            calls.append(
                (simulator.tick, simulator.epsilon, component.full_name, name)
            )
            return original(component, *args)

        return handler

    with pytest.MonkeyPatch.context() as patch, preserve_packet_ids():
        packet_mod._global_packet_ids = itertools.count()
        message_mod._global_message_ids = itertools.count()
        if reference:
            patch.setattr(PhaseWheel, "add", per_event_add)
        simulation = Simulation(Settings.from_dict(config))
        for router in simulation.network.routers:
            router.core_clock = Clock(simulation.simulator, core_period)
            router._core_period1 = core_period == 1
        with attach_sanitizers(simulation, "det") as suite:
            # After DetSan, so its _deliver_item patches come off cleanly.
            for cls, name in HANDLERS:
                patch.setattr(cls, name, recording(cls, name))
            results = simulation.run(max_time=max_time)
            patch.undo()
            suite.finish()
            det = suite.report()["det"]
    assert results.drained
    return {
        "log": "".join(
            json.dumps(record.to_dict()) + "\n"
            for record in simulation.message_log.records
        ),
        "delivery_digest": det["delivery_digest"],
        "deliveries": det["deliveries"],
        "calls": calls,
        "events": simulation.simulator.executed_events,
        "end": (simulation.simulator.tick, simulation.simulator.epsilon),
    }


@pytest.mark.parametrize(
    "config,max_time,core_period",
    [
        pytest.param(small_torus_config(), 20_000, 1, id="torus_iq"),
        pytest.param(
            latent_congestion_config(
                injection_rate=0.15, warmup=50, window=150, half_radix=2),
            2_000, 1, id="folded_clos_oq",
        ),
        pytest.param(
            credit_accounting_config(warmup=100, window=300), 5_000, 1,
            id="hyperx_ioq_2x_channel_clock",
        ),
        pytest.param(
            small_torus_config(warmup_duration=100, generate_duration=400),
            20_000, 2, id="torus_iq_core_period_2",
        ),
    ],
)
def test_wheels_match_one_event_per_registrant(config, max_time, core_period):
    wheels = _observe(config, max_time, core_period, reference=False)
    per_event = _observe(config, max_time, core_period, reference=True)
    assert wheels["log"] and wheels["log"] == per_event["log"]
    assert wheels["delivery_digest"] == per_event["delivery_digest"]
    assert wheels["deliveries"] == per_event["deliveries"]
    assert wheels["calls"] == per_event["calls"]
    assert wheels["end"] == per_event["end"]
    # Same handlers from far fewer engine events (the rest of the count is
    # the workload's own events, identical on both sides).
    assert 3 * wheels["events"] < per_event["events"]
