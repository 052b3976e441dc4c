"""Live objects after a run are bounded by network size, not by
simulated time (ROADMAP item 1(c)).

A ``gc`` census walks every object reachable from the network -- the
routing engines' prebuilt tables and validated-response memos,
the sensors' delay lines and per-key memos, queues, channels -- except
the message log, which keeps one record per delivered message by
design.  Run the same folded Clos of OQ routers for two horizons, one
four times longer: the census must not grow with it, and the caches the
OQ hot path keeps must sit inside their network-size bounds.  Each
router holds one routing engine, and every engine, torus and folded
Clos alike, holds at most 2 x ports x VCs cached entries, the same at
both horizons.

A second census weighs the in-flight record: a single-flit message
still in the network is its ``Message``, ``Packet`` and ``Flit`` and
nothing else the collector tracks, at most 400 bytes all told.

A third counts the routers' input side after build: flat per-router
tables with one flit deque per input VC, and no object per input VC.
A fourth does the same for the output side: credits, VC owners, sensor
slots and OQ output queues are flat lists with one entry per output
VC, and no credit object per port.  A fifth counts arbiters: one per
router and role, with per-slot state, before and after a run.
"""

from __future__ import annotations

import gc
import os
import sys
import types
from collections import deque

import pytest

from repro import Settings, Simulation
from repro.configs import (
    credit_accounting_config, flow_control_config, latent_congestion_config,
)
from repro.net.flit import Flit
from repro.net.message import Message
from repro.net.packet import Packet
from repro.router.arbiter import Arbiter
from repro.router.congestion import PENDING_LIMIT
from repro.routing.base import RoutingAlgorithm

#: Objects the census does not walk into: code, classes and modules are
#: shared program state, not simulation state.
_SHARED = (
    type, types.ModuleType, types.FunctionType, types.CodeType,
    types.BuiltinFunctionType,
)


def reachable(simulation) -> list:
    """Every object reachable from the network but the message log."""
    gc.collect()
    seen = {id(simulation.message_log)}
    found = []
    stack = [simulation.network]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _SHARED):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def census(simulation) -> int:
    return len(reachable(simulation))


def run(window: int) -> Simulation:
    config = latent_congestion_config(
        injection_rate=0.5, output_queue_depth=8, half_radix=2, seed=7,
        warmup=50, window=window,
    )
    config["network"].update(channel_latency=3, terminal_channel_latency=2)
    config["network"]["router"]["core_latency"] = 2
    simulation = Simulation(Settings.from_dict(config))
    assert simulation.run(max_time=100_000).drained
    return simulation


def test_census_does_not_grow_with_simulated_time():
    short, long = run(200), run(800)
    assert len(long.message_log) > 3 * len(short.message_log)
    assert census(long) <= 1.1 * census(short)

    assert engine_census(short) == engine_census(long)
    for router in long.network.routers:
        assert len(router.routing._validated_responses) <= router.num_ports
        sensor = router.sensor
        assert len(sensor._pending) <= PENDING_LIMIT + 2 * router.num_ports * sensor.latency
        assert len(sensor._memo) == router.num_ports * router.num_vcs


# -- routing engines keep no per-destination state --------------------------


def engine_entries(engine) -> int:
    """What a routing engine caches: the entries of every dict it holds
    (for DOR, the validated candidate and ejection lists)."""
    return sum(len(v) for v in vars(engine).values() if isinstance(v, dict))


def engine_census(simulation) -> list:
    """Per router, its routing engine's cached entries, each checked
    against 2 x ports x VCs of the router."""
    entries = []
    for router in simulation.network.routers:
        bound = 2 * router.num_ports * router.num_vcs
        engine = router.routing
        assert not hasattr(engine, "_dor_memo")
        count = engine_entries(engine)
        assert 0 < count <= bound, (router.full_name, count, bound)
        entries.append(count)
    return entries


def routing_census(config: dict, max_time: int) -> list:
    """``engine_census`` after ``max_time`` ticks of ``config``."""
    simulation = Simulation(Settings.from_dict(config))
    simulation.run(max_time=max_time)
    assert sum(c.flits_carried for c in simulation.network.flit_channels)
    return engine_census(simulation)


def test_dor_engine_state_is_linear_in_ports_not_destinations():
    config = flow_control_config(injection_rate=0.3)
    assert config["network"]["dimension_widths"] == [4, 4, 4]
    assert routing_census(config, 200) == routing_census(config, 800)


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("REPRO_FULL_SCALE"),
                    reason="paper-size network; set REPRO_FULL_SCALE=1")
def test_dor_engine_state_is_linear_at_full_scale():
    """The 8^4 torus of Table I, where a per-destination memo reached
    millions of entries."""
    routing_census(flow_control_config(full_scale=True), 60)


# -- folded Clos: down routes come from digit arithmetic ---------------------


def test_clos_engine_state_is_linear_in_ports_not_destinations():
    """The folded Clos of the benchmark, where a per-destination down-port
    cache grew with the terminals each router had routed to."""
    config = latent_congestion_config(
        injection_rate=0.4, warmup=50, window=100, seed=12345)
    assert routing_census(config, 200) == routing_census(config, 800)


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("REPRO_FULL_SCALE"),
                    reason="paper-size network; set REPRO_FULL_SCALE=1")
def test_clos_engine_state_is_linear_at_full_scale():
    """The 4 096-terminal folded Clos of Table I, where the down-port
    cache reached 743 k entries."""
    routing_census(latent_congestion_config(full_scale=True), 60)


# -- one routing engine per router -------------------------------------------


def engines_and_routers(config: dict) -> tuple:
    """(live routing engines, routers) of a freshly built ``config``."""
    simulation = Simulation(Settings.from_dict(config))
    engines = sum(isinstance(obj, RoutingAlgorithm)
                  for obj in reachable(simulation))
    return engines, simulation.network.num_routers


def test_one_routing_engine_per_router():
    """The bench folded Clos: one engine per router, not one per wired
    input port."""
    config = latent_congestion_config(injection_rate=0.4, warmup=50,
                                      window=100)
    assert engines_and_routers(config) == (48, 48)


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("REPRO_FULL_SCALE"),
                    reason="paper-size network; set REPRO_FULL_SCALE=1")
def test_one_routing_engine_per_router_at_full_scale():
    """The 768-router folded Clos of Table I."""
    assert engines_and_routers(latent_congestion_config(full_scale=True)) == (
        768, 768)


# -- the in-flight record: three objects per single-flit message -------------

#: ``Py_TPFLAGS_HAVE_GC``: set on the types whose instances the collector
#: tracks (lists, dicts, tuples, slotted records), clear on ints, bools,
#: strings and ``None``.
_HAVE_GC = 1 << 14


def _message_of(obj) -> Message:
    if type(obj) is Flit:
        obj = obj.packet
    if type(obj) is Packet:
        obj = obj.message
    return obj


def record_census(simulation) -> tuple:
    """(objects, bytes) per undelivered message the network holds.

    Counts every live ``Message``, ``Packet`` and ``Flit`` of an
    undelivered message, plus every object of a collector-tracked type
    they reference, and sums ``sys.getsizeof`` over them.
    """
    in_flight = [
        obj for obj in reachable(simulation)
        if type(obj) in (Message, Packet, Flit)
        and _message_of(obj).delivered_tick is None
    ]
    messages = sum(type(obj) is Message for obj in in_flight)
    assert messages > 100
    counted = {id(obj): obj for obj in in_flight}
    for obj in in_flight:
        for ref in gc.get_referents(obj):
            if type(ref).__flags__ & _HAVE_GC and not isinstance(ref, _SHARED):
                counted.setdefault(id(ref), ref)
    size = sum(sys.getsizeof(obj) for obj in counted.values())
    return len(counted) / messages, size / messages


def partial_run(config: dict, max_time: int) -> Simulation:
    simulation = Simulation(Settings.from_dict(config))
    assert not simulation.run(max_time=max_time).drained
    return simulation


def test_in_flight_message_is_three_objects():
    """The bench folded Clos, single-flit messages, part way through."""
    config = latent_congestion_config(injection_rate=0.4, warmup=50,
                                      window=100)
    objects, size = record_census(partial_run(config, 120))
    assert objects <= 3
    assert size <= 400


def test_in_flight_message_on_dor_torus_is_small():
    """The DOR torus also carries the dateline state on its packets."""
    config = flow_control_config(injection_rate=0.5, message_size=1)
    _objects, size = record_census(partial_run(config, 120))
    assert size <= 400


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("REPRO_FULL_SCALE"),
                    reason="paper-size network; set REPRO_FULL_SCALE=1")
def test_in_flight_message_is_three_objects_at_full_scale():
    """The 4 096-terminal folded Clos of Table I at 0.5 load, where
    ~612 k messages are in flight after 300 ticks."""
    objects, size = record_census(
        partial_run(latent_congestion_config(full_scale=True), 300))
    assert objects <= 3
    assert size <= 400


# -- the router input side: flat tables, one deque per input VC --------------


def test_router_input_side_is_one_deque_per_input_vc():
    """The bench 4x4x4 torus after build: 64 routers x 7 ports x 2 VCs =
    896 input VCs, none of which is an object of its own (a per-VC
    state machine or buffer wrapper)."""
    simulation = Simulation(Settings.from_dict(
        flow_control_config(message_size=4, injection_rate=0.3)))
    per_vc_objects = sum(
        type(obj).__name__ in ("InputVcState", "FlitBuffer")
        for obj in reachable(simulation)
    )
    assert per_vc_objects == 0
    input_vcs = 0
    for router in simulation.network.routers:
        num_inputs = router.num_ports * router.num_vcs
        flits = router._in_flits
        assert len(flits) == num_inputs
        assert all(type(queue) is deque and not queue for queue in flits)
        assert len({id(queue) for queue in flits}) == num_inputs
        input_vcs += num_inputs
    assert input_vcs == 896


# -- the output side: flat tables, one entry per output VC -------------------


def output_side(config: dict):
    """The network of a freshly built ``config``, after checking that no
    per-port credit object is reachable and that every device (router
    and interface) holds its credits in two flat lists of one entry per
    output VC, all credits home."""
    simulation = Simulation(Settings.from_dict(config))
    trackers = sum(
        type(obj).__name__ == "CreditTracker" for obj in reachable(simulation)
    )
    assert trackers == 0
    network = simulation.network
    for device in [*network.routers, *network.interfaces]:
        num_outputs = device.num_ports * device.num_vcs
        assert len(device._credits) == num_outputs
        assert len(device._credit_capacity) == num_outputs
        assert all(type(count) is int for count in device._credits)
        assert device._credits == device._credit_capacity
    return network


def flat_rows(router, *names) -> None:
    """Each named router table has one scalar entry per output VC."""
    num_outputs = router.num_ports * router.num_vcs
    for name in names:
        table = getattr(router, name)
        if table is None:  # an untracked sensor source
            continue
        assert len(table) == num_outputs, name
        assert not any(isinstance(entry, list) for entry in table), name


def per_slot(arbiter, slots: int) -> None:
    """``arbiter`` serves ``slots`` slots, and every list of state it
    keeps has one entry per slot."""
    assert arbiter.slots == slots
    for name, table in vars(arbiter).items():
        if isinstance(table, list):
            assert len(table) == slots, name


def test_router_output_side_is_flat_on_the_iq_torus():
    """The bench 4x4x4 torus of IQ routers: 64 routers x 7 ports x 2 VCs
    = 896 output VCs, whose credits, owners and sensor slots are flat
    per-router lists, and whose VC arbiter keeps one entry per output
    VC."""
    network = output_side(flow_control_config(message_size=4, injection_rate=0.3))
    for router in network.routers:
        flat_rows(router, "_credits", "_output_vc_owner", "_down_slots")
        per_slot(router._vc_arbiter, router.num_ports * router.num_vcs)
        assert set(router._output_vc_owner) == {-1}
    assert sum(len(router._credits) for router in network.routers) == 896


def test_oq_router_has_one_deque_per_output_vc():
    """The bench folded Clos of 48 OQ routers, 320 output VCs: one
    output queue deque and one free-slot count per output VC, no
    per-port rows."""
    network = output_side(latent_congestion_config(
        injection_rate=0.4, warmup=50, window=100))
    output_vcs = 0
    for router in network.routers:
        num_outputs = router.num_ports * router.num_vcs
        queues = router._queues
        assert len(queues) == num_outputs
        assert all(type(queue) is deque and not queue for queue in queues)
        assert len({id(queue) for queue in queues}) == num_outputs
        flat_rows(router, "_queue_free", "_output_vc_owner", "_down_slots",
                  "_out_slots")
        # OQ claims output VCs without a VC scheduler: no VC arbiter.
        assert not hasattr(router, "_vc_arbiter")
        per_slot(router._output_arbiter, router.num_ports)
        assert set(router._queue_free) == {router._queue_capacity}
        output_vcs += num_outputs
    assert output_vcs == 320


# -- arbiters: one per router and role ---------------------------------------

#: Arbiter roles per architecture: the crossbar and VC schedulers (IQ),
#: the output arbiter (OQ), all three (IOQ).
ROLES = {"input_queued": 2, "output_queued": 1, "input_output_queued": 3}


def arbiters(simulation) -> int:
    return sum(isinstance(obj, Arbiter) for obj in reachable(simulation))


@pytest.mark.parametrize("config,routers,expected", [
    pytest.param(flow_control_config(message_size=4, injection_rate=0.3),
                 64, 128, id="bench_torus_iq"),
    pytest.param(latent_congestion_config(injection_rate=0.4, warmup=50,
                                          window=100),
                 48, 48, id="bench_clos_oq"),
    pytest.param(credit_accounting_config(warmup=100, window=300),
                 8, 24, id="hyperx_ioq"),
])
def test_one_arbiter_per_router_and_role(config, routers, expected):
    """Each router holds one arbiter per role, which serves every output
    port or output VC as a slot: none per port, and none built by a
    contest (the bench torus held 448 after build and 687 after a run,
    the bench Clos 320)."""
    simulation = Simulation(Settings.from_dict(config))
    network = simulation.network
    assert network.num_routers == routers
    architecture = config["network"]["router"]["architecture"]
    assert routers * ROLES[architecture] == expected
    assert arbiters(simulation) == expected
    simulation.run(max_time=400)
    assert sum(r.flits_received for r in network.routers)
    assert arbiters(simulation) == expected
