"""The one routing commitment: a two-phase source decision commits a
member of the set its engine declares.

The lint dependency trace certifies a two-phase network by following
every state ``source_choices`` declares instead of drawing one, so the
certificate covers a run only if ``_decide`` never commits anything
else.  These tests drive each two-phase engine's ``respond()`` from
every terminal port toward every terminal, on HyperX and dragonfly,
with an idle sensor and (UGAL) a loaded one, and check each commit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Settings, models
from repro.config.spec import spec_of
from repro.core.rng import RandomManager
from repro.core.simulator import Simulator
from repro.router.congestion import SOURCE_DOWNSTREAM, SOURCE_OUTPUT
from repro.routing.two_phase import MINIMAL
from repro.sim import Simulation

from tests.conftest import make_packet
from tests.integration.test_delivery_invariants import CONFIGS


def build(name: str):
    models.load_all()
    settings = Settings.from_dict(CONFIGS[name]).read(Simulation, "network")
    model = spec_of(Simulation, "network").select(settings)
    return model(Simulator(), "network", None, settings, RandomManager(5))


def load(network, seed: int = 11) -> None:
    """Record a random occupancy on every network port and VC of every
    router, in each credit pool its sensor tracks."""
    rng = np.random.default_rng(seed)
    for router in network.routers:
        for port in range(network.concentration, router.num_ports):
            if not router.port_is_wired(port):
                continue
            for vc in range(router.num_vcs):
                for source in (SOURCE_OUTPUT, SOURCE_DOWNSTREAM):
                    router.sensor.record(source, port, vc,
                                         int(rng.integers(0, 9)))


def drive_source_decisions(network, rounds: int = 3) -> list:
    """Route fresh packets from every terminal port of every router to
    every terminal; return one ``(state, choices)`` row per commit."""
    commits = []
    for router in network.routers:
        engine = router.routing

        def commit(packet, state, commit=engine.commit,
                   choices=engine.source_choices):
            commits.append((state, choices(packet)))
            commit(packet, state)

        engine.commit = commit
        for port in range(network.concentration):
            src = router.router_id * network.concentration + port
            for _ in range(rounds):
                for dst in range(network.num_terminals):
                    if dst == src:
                        continue
                    before = len(commits)
                    engine.respond(make_packet(src, dst, network=network),
                                   port, 0)
                    assert len(commits) == before + 1
    return commits


def check(commits) -> set:
    outside = [(state, choices) for state, choices in commits
               if state not in choices]
    assert not outside, f"{len(outside)} commits outside source_choices, " \
                        f"e.g. {outside[:3]}"
    return {state == MINIMAL for state, _ in commits}


@pytest.mark.parametrize("name", ["hyperx_2d_valiant", "hyperx_ioq_ugal",
                                  "dragonfly_valiant", "dragonfly_ugal"])
def test_idle_decisions_commit_a_declared_state(name):
    network = build(name)
    kinds = check(drive_source_decisions(network))
    if name.endswith("ugal"):
        assert kinds == {True}  # q_min = q_val = 0: minimal always wins
    else:
        assert kinds == {True, False}


@pytest.mark.parametrize("name", ["hyperx_ioq_ugal", "dragonfly_ugal"])
def test_loaded_decisions_commit_a_declared_state(name):
    network = build(name)
    simulator = network.simulator
    kinds = []
    simulator.call_at(0, lambda event: load(network), epsilon=1)
    simulator.call_at(
        10, lambda event: kinds.append(check(drive_source_decisions(network)))
    )
    simulator.run()
    assert kinds == [{True, False}]  # the load diverts some packets


def test_choices_exclude_both_ends():
    network = build("hyperx_2d_valiant")
    engine = network.routers[0].routing
    choices = engine.source_choices(make_packet(0, 8, network=network))
    assert choices == (MINIMAL,) + tuple(range(1, 8))
    ugal = build("hyperx_ioq_ugal")
    local = make_packet(0, 1, network=ugal)  # this very router
    assert ugal.routers[0].routing.source_choices(local) == (MINIMAL,)
