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

The two-phase (Valiant/UGAL) cells on HyperX and dragonfly were
recorded at cdd43b6, where each topology still had its own two-phase
implementation: they pin the random intermediate draws and the UGAL
source decisions of the shared core.  The three with 2-flit packets
(``hyperx_valiant``, ``dragonfly_valiant``, ``dragonfly_ugal``) were
re-recorded when routers moved the hop count from the tail's departure
to the head's: a head routed while its previous router still held the
tail took the previous hop's VC.  Only their digests moved, which
cover each flit's VC; every count is equal.

The packet-buffer, winner-take-all and age-based cells were recorded at
7b2f905, where the IQ and IOQ routers still granted uncontested flits
in their own inline copies of the crossbar scheduler: they pin the
locking flow-control grants and the age-based arbiter.

The two random-arbiter cells were recorded at 32770d1, where every
arbitration point was its own arbiter object with its own generator:
they pin each random crossbar, VC-scheduler and output-arbiter draw of
a contested run on the IQ and IOQ routers.
"""

from __future__ import annotations

import pytest

from repro import Settings, Simulation
from repro.configs import credit_accounting_config, latent_congestion_config
from repro.sanitize import attach_sanitizers

from tests.conftest import small_torus_config
from tests.integration.test_delivery_invariants import CONFIGS, base_workload


def _invariants_cell(name: str) -> dict:
    return {"simulator": {"seed": 23}, **CONFIGS[name]}


def _random_arbiters_cell(architecture: str) -> dict:
    """A 4x4 torus of ``architecture`` routers whose every arbiter role is
    random, with 4-flit messages at a load that contests each role."""
    random = {"type": "random"}
    router = {"architecture": architecture,
              "input_queue_depth": 16, "core_latency": 2,
              "crossbar_scheduler": {"arbiter": random},
              "vc_scheduler": {"arbiter": random}}
    if architecture == "input_output_queued":
        router.update(output_queue_depth=16, output_arbiter=random)
    return {
        "simulator": {"seed": 23},
        "network": {
            "topology": "torus",
            "dimension_widths": [4, 4], "concentration": 2,
            "num_vcs": 2,
            "channel_latency": 2,
            "channel_period": 2,
            "router": router,
            "interface": {"max_packet_size": 8},
            "routing": {"algorithm": "torus_dimension_order"},
        },
        "workload": base_workload(rate=0.2, size=4),
    }


def _digest_run(config: dict, max_time: int) -> dict:
    """Run once under DetSan; return the state the pins cover."""
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
        pytest.param(
            _invariants_cell("hyperx_2d_valiant"), 400_000,
            _pin("76908eb5", 18996, 2046, 1023, 7452),
            id="hyperx_valiant",
        ),
        pytest.param(
            _invariants_cell("hyperx_ioq_ugal"), 400_000,
            _pin("8f51a60c", 25652, 3712, 3712, 9114),
            id="hyperx_ugal",
        ),
        pytest.param(
            _invariants_cell("dragonfly_valiant"), 400_000,
            _pin("039e7e69", 52324, 4648, 2324, 21514),
            id="dragonfly_valiant",
        ),
        pytest.param(
            _invariants_cell("dragonfly_ugal"), 400_000,
            _pin("c934d3f4", 24296, 3028, 1514, 9120),
            id="dragonfly_ugal",
        ),
        pytest.param(
            _invariants_cell("torus_iq_packet_buffer"), 400_000,
            _pin("56cfae13", 11316, 1812, 302, 3846),
            id="torus_iq_packet_buffer",
        ),
        pytest.param(
            _invariants_cell("torus_ioq_wta"), 400_000,
            _pin("b8bf132f", 11316, 1812, 302, 3846),
            id="torus_ioq_wta",
        ),
        pytest.param(
            _invariants_cell("parking_lot_age_based"), 400_000,
            _pin("0be3d766", 4544, 640, 320, 1632),
            id="parking_lot_age_based",
        ),
        pytest.param(
            _random_arbiters_cell("input_queued"), 400_000,
            _pin("88044935", 40648, 4976, 1244, 15348),
            id="torus_iq_random",
        ),
        pytest.param(
            _random_arbiters_cell("input_output_queued"), 400_000,
            _pin("cb39b93a", 40648, 4976, 1244, 15348),
            id="torus_ioq_random",
        ),
    ],
)
def test_coalesced_delivery_matches_per_item_pins(config, max_time, pinned):
    assert _digest_run(config, max_time) == pinned
