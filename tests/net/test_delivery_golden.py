"""Golden delivery digests for coalesced channel delivery.

Coalesced delivery merges per-item channel events into per-channel
batch events.  It replaced a path that scheduled one heap event per
flit and credit; the constants below were recorded from that
one-event-per-item path at the last commit that still had it (7d21bb6),
so they are an independent statement of *which item lands on which
channel at which (tick, epsilon)*.  DetSan's order-commutative delivery
digest is built exactly for this check (the order-sensitive event
digest legitimately depends on how deliveries are packed into events).

Covered on torus/IQ, folded-Clos/OQ/adaptive and HyperX/IOQ/UGAL with
the 2x channel clock -- the three router architectures exercise
disjoint send paths, and only the last paces channels at period 2.
"""

from __future__ import annotations

import itertools

import pytest

import repro.net.message as message_mod
import repro.net.packet as packet_mod
from repro import Settings, Simulation
from repro.configs import credit_accounting_config, latent_congestion_config
from repro.net.packet import preserve_packet_ids
from repro.sanitize import attach_sanitizers

from tests.conftest import small_torus_config


def _digest_run(config: dict, max_time: int) -> dict:
    """Run once under DetSan; return the state the pins cover.

    Packet and message ids are process-global, feed routing decisions
    and are part of every item fingerprint; the pins were recorded in a
    fresh process, so the counters restart from zero here (and are put
    back afterwards).
    """
    with preserve_packet_ids():
        packet_mod._global_packet_ids = itertools.count()
        message_mod._global_message_ids = itertools.count()
        simulation = Simulation(Settings.from_dict(config))
        with attach_sanitizers(simulation, "det") as suite:
            results = simulation.run(max_time=max_time)
            suite.finish()
            det = suite.report()["det"]
        network = simulation.network
        return {
            "delivery_digest": det["delivery_digest"],
            "deliveries": det["deliveries"],
            "drained": results.drained,
            "injected": sum(i.flits_injected for i in network.interfaces),
            "ejected": sum(i.flits_ejected for i in network.interfaces),
            "messages": sum(i.messages_delivered for i in network.interfaces),
            "hops": sum(r.flits_received for r in network.routers),
        }


def _pin(digest, deliveries, flits, messages, hops) -> dict:
    return {
        "delivery_digest": digest,
        "deliveries": deliveries,
        "drained": True,
        "injected": flits,
        "ejected": flits,
        "messages": messages,
        "hops": hops,
    }


@pytest.mark.parametrize(
    "config,max_time,pinned",
    [
        pytest.param(
            small_torus_config(), 20_000,
            _pin("1a491c70", 48056, 5800, 1450, 18228),
            id="torus_iq",
        ),
        pytest.param(
            latent_congestion_config(
                injection_rate=0.15, warmup=50, window=150, half_radix=2),
            2_000,
            _pin("b5a9a571", 10740, 895, 895, 4475),
            id="folded_clos_oq",
        ),
        pytest.param(
            credit_accounting_config(warmup=100, window=300), 5_000,
            _pin("b4455a96", 30862, 5256, 5256, 10175),
            id="hyperx_ioq_2x_channel_clock",
        ),
    ],
)
def test_coalesced_delivery_matches_per_item_pins(config, max_time, pinned):
    assert _digest_run(config, max_time) == pinned
