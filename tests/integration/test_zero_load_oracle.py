"""Zero-load latency against a closed form that shares no simulator code.

At an injection rate of 0.001 flits per terminal per tick two messages
almost never meet, so a single-flit message's latency is pure physics,
computed here from configuration values and terminal coordinates only:

    2 x terminal_channel_latency           (inject link, eject link)
  + routers x core_latency                 (every router on the path)
  + (routers - 1) x channel_latency        (router-to-router links)
  + (flits - 1) x channel_period           (serialization: 0 here)

``routers`` is the length of a minimal path, derived from the
terminal numbering: on a torus with concentration 1, terminal ``t`` sits
on the router whose mixed-radix digits (dimension 0 least significant)
are its coordinates, and each dimension costs the shorter way round its
ring; in an ``n``-level folded Clos of half-radix ``k``, a message climbs
to the lowest level ``l`` at which source and destination share the
subtree ``t // k**l``, crossing ``2l - 1`` routers; in a HyperX,
dimension-order routing crosses one router per coordinate in which the
source and destination routers differ, plus one.  The HyperX runs IOQ
routers with a 2x channel clock: a 1-tick core under 2-tick channels
adds no offset at zero load, so its closed form is exact as well.

No message may beat the closed form, and at least 99 % must equal it
(the rest met another message on the way).  Asserted for single-process
runs and for sharded runs in forked worker processes, so the forked
start-up is checked by something other than its own digest.
"""

from __future__ import annotations

import pytest

from repro import Settings, Simulation
from repro.configs import (
    credit_accounting_config,
    flow_control_config,
    latent_congestion_config,
)
from repro.partition import runtime
from repro.partition.runtime import run_sharded

RATE = 0.001


def _torus_config() -> dict:
    """4x4x4 torus, IQ routers, dimension-order routing."""
    return flow_control_config(
        message_size=1, injection_rate=RATE, warmup=1000, window=20_000
    )


def _clos_config() -> dict:
    """3-level folded Clos of half-radix 4, OQ routers, every path
    length (uniform random, not only through the root)."""
    config = latent_congestion_config(
        injection_rate=RATE, warmup=1000, window=20_000
    )
    config["workload"]["applications"][0]["traffic"] = {
        "type": "uniform_random"
    }
    return config


def _hyperx_config() -> dict:
    """1-D HyperX of 8 routers x 4 terminals, IOQ routers, 2x channel
    clock, dimension-order routing.  Injection is per channel cycle, so
    the window is twice as long for the same message count."""
    config = credit_accounting_config(
        injection_rate=RATE, warmup=1000, window=80_000
    )
    config["network"]["routing"] = {"algorithm": "hyperx_dimension_order"}
    return config


def _torus_routers(network: dict, source: int, destination: int) -> int:
    assert network["concentration"] == 1
    hops = 0
    for width in network["dimension_widths"]:
        delta = abs(source % width - destination % width)
        hops += min(delta, width - delta)
        source //= width
        destination //= width
    return hops + 1


def _clos_routers(network: dict, source: int, destination: int) -> int:
    k = network["half_radix"]
    for level in range(1, network["num_levels"] + 1):
        if source // k ** level == destination // k ** level:
            return 2 * level - 1
    raise AssertionError(f"terminals {source} and {destination} unconnected")


def _hyperx_routers(network: dict, source: int, destination: int) -> int:
    source //= network["concentration"]
    destination //= network["concentration"]
    differing = 0
    for width in network["dimension_widths"]:
        differing += source % width != destination % width
        source //= width
        destination //= width
    return differing + 1


ROUTERS = {
    "torus": _torus_routers,
    "folded_clos": _clos_routers,
    "hyperx": _hyperx_routers,
}


def closed_form(network: dict, record) -> int:
    routers = ROUTERS[network["topology"]](
        network, record.source, record.destination
    )
    return (
        2 * network["terminal_channel_latency"]
        + routers * network["router"]["core_latency"]
        + (routers - 1) * network["channel_latency"]
        + (record.num_flits - 1) * network["channel_period"]
    )


@pytest.mark.parametrize("sharded", [False, True], ids=["single", "forked-k2"])
@pytest.mark.parametrize(
    "build",
    [_torus_config, _clos_config, _hyperx_config],
    ids=["torus_iq", "folded_clos_oq", "hyperx_ioq"],
)
def test_zero_load_latency_equals_the_closed_form(monkeypatch, build, sharded):
    config = build()
    if sharded:
        monkeypatch.setattr(runtime, "_start_method", lambda: "fork")
        results = run_sharded(config, k=2, shard_workers=2)
        assert results.mode == "fork"
        records = results.records
    else:
        simulation = Simulation(Settings.from_dict(config))
        simulation.run()
        records = simulation.message_log.records
    assert len(records) >= 1000
    network = config["network"]
    offsets = [record.latency - closed_form(network, record) for record in records]
    early = [offset for offset in offsets if offset < 0]
    assert not early, f"{len(early)} messages beat the closed form: {early[:5]}"
    exact = offsets.count(0) / len(offsets)
    assert exact >= 0.99, f"only {exact:.1%} of messages at the closed form"
