"""Every VC a simulated head takes, checked against what was certified.

A router counts a packet's hop as its head leaves (the one
``packet.hop_count`` bump, in ``Router._pop_input_flit``).  These tests
wrap that pop on every router of a run and record each head's
``(input channel, VC) -> (output channel, VC)`` dependency:

* **discipline**: on the hop-VC families (HyperX and dragonfly), every
  router-to-router head hop takes VC ``0`` from a terminal port and
  ``min(input VC + 1, top VC)`` from a network port -- the VC = hops
  taken discipline their deadlock freedom rests on;
* **subset**: on every traced family, every dependency the run takes
  is an edge of the G layer's
  certified graph (``GraphAnalysis.full_edges``), so the deadlock
  certificate covers the run.  Edges into ejection channels are
  skipped: they close no cycle, and the trace omits self-addressed
  pairs, which ``all_to_one`` traffic sends.

Both run with 1- and 8-flit packets: on multi-flit packets a head can
be routed while its previous router still holds the tail.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Tuple

import pytest

from repro import Settings, Simulation
from repro.lint.graph import GraphAnalysis
from repro.router.base import Router

from tests.integration.test_delivery_invariants import CONFIGS

Node = Tuple[str, int]


def flit_cell(name: str, flits: int) -> dict:
    """A delivery-invariants cell with ``flits``-flit packets."""
    if name == "hyperx_2d_dimension_order":
        config = copy.deepcopy(CONFIGS["hyperx_2d_valiant"])
        config["network"]["routing"]["algorithm"] = "hyperx_dimension_order"
    else:
        config = copy.deepcopy(CONFIGS[name])
    config["simulator"] = {"seed": 23}
    config["network"]["interface"]["max_packet_size"] = flits
    config["workload"]["applications"][0]["message_size"]["size"] = flits
    return config


def _record_head_hops(network) -> List[tuple]:
    """Wrap every router's input pop; return the list it fills with one
    ``(router, input port, input VC, output port, output VC)`` row per
    head that leaves a router."""
    hops: List[tuple] = []
    for router in network.routers:
        def pop(i, router=router, pop=router._pop_input_flit):
            if router._in_flits[i][0].head:
                num_vcs = router.num_vcs
                hops.append((router, i // num_vcs, i % num_vcs,
                             router._in_out_port[i], router._in_out_vc[i]))
            return pop(i)
        router._pop_input_flit = pop
    return hops


def _run(config: dict):
    simulation = Simulation(Settings.from_dict(config))
    hops = _record_head_hops(simulation.network)
    results = simulation.run(max_time=400_000)
    assert results.drained
    assert hops
    return simulation.network, hops


def _input_channels(network) -> Dict[Tuple[str, int], str]:
    """(sink device, sink port) -> the flit channel feeding it."""
    feeds = {}
    for device in list(network.routers) + list(network.interfaces):
        for channel in device._flit_out:
            if channel is not None and channel.sink is not None:
                feeds[(channel.sink.full_name, channel.sink_port)] = (
                    channel.full_name)
    return feeds


HOP_VC_FAMILIES = (
    "hyperx_2d_valiant",
    "hyperx_ioq_ugal",
    "dragonfly_minimal",
    "dragonfly_valiant",
    "dragonfly_ugal",
)


@pytest.mark.parametrize("flits", [1, 8])
@pytest.mark.parametrize("name", HOP_VC_FAMILIES)
def test_head_hops_follow_the_hop_vc_discipline(name, flits):
    network, hops = _run(flit_cell(name, flits))
    concentration = network.concentration
    checked = violations = 0
    for router, in_port, in_vc, out_port, out_vc in hops:
        if not isinstance(router._flit_out[out_port].sink, Router):
            continue  # ejection: any VC
        top = router.num_vcs - 1
        expected = 0 if in_port < concentration else min(in_vc + 1, top)
        checked += 1
        violations += out_vc != expected
    assert checked > 0
    assert violations == 0, f"{violations}/{checked} head hops off-discipline"


#: Families whose dependency trace enumerates every choice a run can
#: make: every candidate, and every source commitment.
TRACED_FAMILIES = (
    "torus_iq_dor",
    "torus_3d_adaptive",
    "torus_ioq_wta",
    "clos_oq_adaptive",
    "clos_oq_deterministic",
    "parking_lot_age_based",
    "hyperx_2d_dimension_order",
    "hyperx_2d_valiant",
    "hyperx_ioq_ugal",
    "dragonfly_minimal",
    "dragonfly_valiant",
    "dragonfly_ugal",
)


@pytest.mark.parametrize("flits", [1, 8])
@pytest.mark.parametrize("name", TRACED_FAMILIES)
def test_simulated_dependencies_are_certified_edges(name, flits):
    config = flit_cell(name, flits)
    analysis = GraphAnalysis(Settings.from_dict(config), max_pairs=10**6)
    assert analysis.constructed and not analysis.truncated
    n = analysis.network.num_terminals
    assert analysis.pairs_traced == n * (n - 1)
    network, hops = _run(config)
    feeds = _input_channels(network)
    taken = set()
    for router, in_port, in_vc, out_port, out_vc in hops:
        out_channel = router._flit_out[out_port]
        if not isinstance(out_channel.sink, Router):
            continue  # an ejection edge closes no cycle
        source: Node = (feeds[(router.full_name, in_port)], in_vc)
        taken.add((source, (out_channel.full_name, out_vc)))
    missing = sorted(
        (a, b) for a, b in taken if b not in analysis.full_edges.get(a, ())
    )
    assert taken
    assert not missing, (
        f"{len(missing)}/{len(taken)} dependencies uncertified, e.g. "
        f"{missing[:3]}"
    )
