"""Live objects after a run are bounded by network size, not by
simulated time (ROADMAP item 1(c)).

A ``gc`` census walks every object reachable from the network -- the
routers' route caches, the routing engines' validated-response memos,
the sensors' delay lines and per-key memos, queues, channels -- except
the message log, which keeps one record per delivered message by
design.  Run the same folded Clos of OQ routers for two horizons, one
four times longer: the census must not grow with it, and the caches the
OQ hot path keeps must sit inside their network-size bounds.
"""

from __future__ import annotations

import gc
import types

from repro import Settings, Simulation
from repro.configs import latent_congestion_config
from repro.router.congestion import PENDING_LIMIT

#: Objects the census does not walk into: code, classes and modules are
#: shared program state, not simulation state.
_SHARED = (
    type, types.ModuleType, types.FunctionType, types.CodeType,
    types.BuiltinFunctionType,
)


def census(simulation) -> int:
    gc.collect()
    seen = {id(simulation.message_log)}
    stack = [simulation.network]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _SHARED):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen) - 1


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

    network = long.network
    terminals = len(network.interfaces)
    for router in network.routers:
        assert len(router.route_cache["clos_down_ports"]) <= terminals
        for engine in router._routing:
            if engine is not None:
                assert len(engine._validated_responses) <= router.num_ports
        sensor = router.sensor
        assert len(sensor._pending) <= PENDING_LIMIT + 2 * router.num_ports * sensor.latency
        assert len(sensor._memo) == router.num_ports * router.num_vcs
