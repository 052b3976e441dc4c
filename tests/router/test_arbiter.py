"""Arbiters: round robin fairness, age-based priority, validity, and
slots that arbitrate independently of each other."""

import pytest

from repro import Simulation
from repro.config.settings import Settings
from repro.core.rng import RandomManager
from repro.router.arbiter import (
    AgeBasedArbiter,
    Arbiter,
    FixedPriorityArbiter,
    RandomArbiter,
    RoundRobinArbiter,
    create_arbiter,
)

from tests.conftest import make_packet, small_torus_config


def packet_with_age(injection_tick):
    packet = make_packet(0, 1)
    packet.injection_tick = injection_tick
    return packet


class TestRoundRobin:
    def test_empty_requests(self):
        assert RoundRobinArbiter(1, 4).arbitrate(0, []) is None

    def test_single_request(self):
        assert RoundRobinArbiter(1, 4).arbitrate(0, [(2, None)]) == 2

    def test_rotation_over_persistent_requesters(self):
        arbiter = RoundRobinArbiter(1, 3)
        requests = [(0, None), (1, None), (2, None)]
        winners = [arbiter.arbitrate(0, list(requests)) for _ in range(6)]
        assert winners == [0, 1, 2, 0, 1, 2]

    def test_fairness_under_contention(self):
        arbiter = RoundRobinArbiter(1, 4)
        counts = {i: 0 for i in range(4)}
        for _ in range(400):
            winner = arbiter.arbitrate(0, [(i, None) for i in range(4)])
            counts[winner] += 1
        assert all(count == 100 for count in counts.values())

    def test_skips_non_requesters(self):
        arbiter = RoundRobinArbiter(1, 4)
        assert arbiter.arbitrate(0, [(1, None), (3, None)]) == 1
        assert arbiter.arbitrate(0, [(1, None), (3, None)]) == 3
        assert arbiter.arbitrate(0, [(1, None), (3, None)]) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(1, 2).arbitrate(0, [(5, None)])


class TestAgeBased:
    def test_oldest_wins(self):
        arbiter = AgeBasedArbiter(1, 4)
        old = packet_with_age(10)
        young = packet_with_age(90)
        winner = arbiter.arbitrate(0, [(0, young), (1, old)], now_tick=100)
        assert winner == 1

    def test_tie_breaks_by_index(self):
        arbiter = AgeBasedArbiter(1, 4)
        a = packet_with_age(50)
        b = packet_with_age(50)
        assert arbiter.arbitrate(0, [(3, a), (1, b)], now_tick=100) == 1

    def test_missing_packet_is_age_zero(self):
        arbiter = AgeBasedArbiter(1, 4)
        old = packet_with_age(0)
        assert arbiter.arbitrate(0, [(0, None), (1, old)], now_tick=50) == 1

    def test_empty(self):
        assert AgeBasedArbiter(1, 2).arbitrate(0, []) is None


class TestRandom:
    def test_winner_is_a_requester(self):
        arbiter = RandomArbiter(1, 8, RandomManager(0), str)
        for _ in range(50):
            winner = arbiter.arbitrate(0, [(2, None), (5, None), (7, None)])
            assert winner in (2, 5, 7)

    def test_covers_all_requesters(self):
        arbiter = RandomArbiter(1, 4, RandomManager(1), str)
        winners = {
            arbiter.arbitrate(0, [(i, None) for i in range(4)]) for _ in range(200)
        }
        assert winners == {0, 1, 2, 3}

    def test_one_request_and_forced_never_touch_the_generator(self):
        """An uncontested grant draws nothing: the slot's generator is
        never built, and its first contested draw is the stream's first."""
        arbiter = RandomArbiter(2, 4, RandomManager(3), "slot{}".format)
        for _ in range(5):
            assert arbiter.arbitrate(1, [(2, None)]) == 2
            arbiter.forced(1, 3, None, 0)
        assert arbiter._rngs == [None, None]
        stream = RandomManager(3).generator("slot1")
        requests = [(index, None) for index in range(4)]
        assert ([arbiter.arbitrate(1, requests) for _ in range(20)]
                == [int(stream.integers(4)) for _ in range(20)])


class TestFixedPriority:
    def test_lowest_index_wins(self):
        arbiter = FixedPriorityArbiter(1, 4)
        assert arbiter.arbitrate(0, [(3, None), (1, None), (2, None)]) == 1
        # And it keeps winning: intentionally unfair.
        assert arbiter.arbitrate(0, [(3, None), (1, None)]) == 1


class TestFactory:
    def test_create_by_settings(self):
        arbiter = create_arbiter(
            Settings.from_dict({"type": "age_based"}), 1, 4, RandomManager(0), str
        )
        assert isinstance(arbiter, AgeBasedArbiter)

    def test_default_is_round_robin(self):
        arbiter = create_arbiter(Settings.from_dict({}), 1, 4, RandomManager(0), str)
        assert isinstance(arbiter, RoundRobinArbiter)

    def test_random_gets_rng(self):
        random = RandomManager(7)
        arbiter = create_arbiter(
            Settings.from_dict({"type": "random"}), 2, 4, random, "arb{}".format
        )
        assert isinstance(arbiter, RandomArbiter)
        assert arbiter.generator(1).integers(1 << 30) == random.generator(
            "arb1").integers(1 << 30)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(1, 0)
        with pytest.raises(ValueError):
            RoundRobinArbiter(0, 4)


def _random_arbiter_draws(seed):
    """First draws of random crossbar, VC and output arbiters on two
    ports of two routers of a 4x4x4 IOQ torus run at ``seed``."""
    random_arbiter = {"arbiter": {"type": "random"}}
    config = small_torus_config()
    config["simulator"]["seed"] = seed
    config["network"]["dimension_widths"] = [4, 4, 4]
    config["network"]["router"].update({
        "architecture": "input_output_queued",
        "crossbar_scheduler": random_arbiter,
        "vc_scheduler": random_arbiter,
        "output_arbiter": {"type": "random"},
    })
    routers = Simulation(Settings.from_dict(config)).network.routers
    packet = make_packet(0, 1)
    draws = {}
    for router_id in (0, 5):
        router = routers[router_id]
        for port in (0, 1):
            # Two input VCs claim output VC (port, 0): the VC arbiter's
            # slot for it builds its generator and draws once.
            claimants = [in_port * router.num_vcs for in_port in (2, 3)]
            for i in claimants:
                router._in_packet[i] = packet
                router._in_candidates[i] = ((port, 0),)
                router._alloc_pending.append(i)
            router._allocate_vcs()
            for i in claimants:
                router._in_packet[i] = None
                router._in_out_port[i] = router._in_out_vc[i] = -1
            o = port * router.num_vcs + 0
            assert router._output_vc_owner[o] in claimants
            router._output_vc_owner[o] = -1
            generators = {
                "crossbar": router.scheduler.arbiter.generator(port),
                "vc": router._vc_arbiter.generator(o),
                "output": router._output_arbiter.generator(port),
            }
            for role, rng in generators.items():
                draws[(router_id, role, port)] = int(rng.integers(1 << 62))
    return draws


def test_random_arbiters_draw_from_per_router_role_port_streams():
    """Each slot of a random arbiter has its own stream of the run's
    seed: no two ports, roles or routers share one, and the seed moves
    them all."""
    first = _random_arbiter_draws(seed=1)
    second = _random_arbiter_draws(seed=2)
    assert len(set(first.values())) == len(first)
    assert all(first[key] != second[key] for key in first)
