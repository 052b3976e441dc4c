"""Property-based tests (hypothesis) on core data structures and
invariants."""

import heapq

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.config.settings import Settings, apply_override, parse_override
from repro.core.clock import Clock
from repro.core.simtime import TimeStep
from repro.core.simulator import Simulator
from repro.net.credit import CreditError
from repro.net.device import PortedDevice
from repro.router.arbiter import RoundRobinArbiter
from repro.stats.latency import LatencyDistribution
from repro.topology.util import coords_to_index, index_to_coords, ring_distance

ticks = st.integers(min_value=0, max_value=10**9)
epsilons = st.integers(min_value=0, max_value=1000)


class TestTimeStepProperties:
    @given(ticks, epsilons, ticks, epsilons)
    def test_ordering_is_lexicographic(self, t1, e1, t2, e2):
        a, b = TimeStep(t1, e1), TimeStep(t2, e2)
        assert (a < b) == ((t1, e1) < (t2, e2))
        assert (a == b) == ((t1, e1) == (t2, e2))

    @given(ticks, epsilons, st.integers(min_value=0, max_value=1000))
    def test_plus_ticks_monotone(self, tick, epsilon, delta):
        base = TimeStep(tick, epsilon)
        later = base.plus_ticks(delta)
        assert later >= TimeStep(tick, 0)
        assert later.epsilon == 0

    @given(st.lists(st.tuples(ticks, epsilons), min_size=1, max_size=50))
    def test_heap_order_matches_sort_order(self, times):
        steps = [TimeStep(t, e) for t, e in times]
        heap = list(steps)
        heapq.heapify(heap)
        popped = [heapq.heappop(heap) for _ in range(len(heap))]
        assert popped == sorted(steps)


class TestClockProperties:
    @given(st.integers(min_value=1, max_value=97),
           st.integers(min_value=0, max_value=10_000))
    def test_next_edge_is_an_edge_at_or_after(self, period, tick):
        clock = Clock(Simulator(), period=period)
        edge = clock.next_edge(tick)
        assert edge >= tick
        assert clock.is_edge(edge)
        # No edge strictly between tick and edge.
        if edge > tick:
            assert (edge - period) < tick

    @given(st.integers(min_value=1, max_value=97),
           st.integers(min_value=0, max_value=10_000))
    def test_following_edge_strictly_after(self, period, tick):
        clock = Clock(Simulator(), period=period)
        edge = clock.following_edge(tick)
        assert edge > tick
        assert clock.is_edge(edge)


class TestRingDistanceProperties:
    @given(st.integers(min_value=2, max_value=64),
           st.data())
    def test_distance_is_minimal_and_consistent(self, k, data):
        a = data.draw(st.integers(min_value=0, max_value=k - 1))
        b = data.draw(st.integers(min_value=0, max_value=k - 1))
        hops, direction = ring_distance(a, b, k)
        assert 0 <= hops <= k // 2
        # Walking `hops` steps in `direction` reaches b.
        assert (a + direction * hops) % k == b
        # Symmetry of the hop count.
        assert ring_distance(b, a, k)[0] == hops


class TestCoordProperties:
    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                    max_size=5), st.data())
    def test_round_trip(self, widths, data):
        total = 1
        for width in widths:
            total *= width
        index = data.draw(st.integers(min_value=0, max_value=total - 1))
        coords = index_to_coords(index, widths)
        assert coords_to_index(coords, widths) == index
        assert all(0 <= c < w for c, w in zip(coords, widths))


class TestCreditProperties:
    @given(st.integers(min_value=1, max_value=32),
           st.lists(st.booleans(), max_size=200))
    def test_never_negative_never_over_capacity(self, capacity, ops):
        device = PortedDevice(Simulator(), "dev", None, 2, 2)
        device.init_output_credits(1, [capacity, capacity])
        o = 1 * device.num_vcs + 0
        taken = 0
        for take in ops:
            if take:
                if device._credits[o] >= 1:
                    device.take_credit(1, 0)
                    taken += 1
                else:
                    with pytest.raises(CreditError):
                        device.take_credit(1, 0)
            else:
                if taken:
                    device.give_credit(1, 0)
                    taken -= 1
                else:
                    with pytest.raises(CreditError):
                        device.give_credit(1, 0)
            assert 0 <= device._credits[o] <= capacity
            assert device._credits[o] + taken == capacity
            # No other output VC moves.
            assert device._credits[:o] == [0, 0]
            assert device._credits[o + 1] == capacity


class TestArbiterProperties:
    @given(st.integers(min_value=1, max_value=16), st.data())
    def test_round_robin_always_grants_a_requester(self, size, data):
        arbiter = RoundRobinArbiter(3, size)
        for _round in range(10):
            slot = data.draw(st.integers(min_value=0, max_value=2))
            indices = data.draw(
                st.lists(st.integers(min_value=0, max_value=size - 1),
                         unique=True, max_size=size)
            )
            requests = [(i, None) for i in indices]
            winner = arbiter.arbitrate(slot, requests)
            if indices:
                assert winner in indices
            else:
                assert winner is None

    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=1, max_value=20))
    def test_round_robin_starvation_freedom(self, size, rounds):
        """Under persistent full contention, every requester wins within
        `size` consecutive grants of a slot."""
        arbiter = RoundRobinArbiter(2, size)
        requests = [(i, None) for i in range(size)]
        wins = [arbiter.arbitrate(1, list(requests)) for _ in range(size * rounds)]
        for start in range(0, len(wins) - size + 1, size):
            assert set(wins[start:start + size]) == set(range(size))


class TestOverrideProperties:
    @given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4),
           st.integers(min_value=0, max_value=10**9))
    def test_uint_override_round_trip(self, path_letters, value):
        path = ".".join(path_letters)
        parsed_path, parsed_value = parse_override(f"{path}=uint={value}")
        root = {}
        apply_override(root, parsed_path, parsed_value)
        node = root
        for key in parsed_path[:-1]:
            node = node[key]
        assert node[parsed_path[-1]] == value

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_float_override_round_trip(self, value):
        _path, parsed = parse_override(f"x=float={value!r}")
        assert parsed == float(repr(value))


class TestLatencyDistributionProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1,
                    max_size=300))
    def test_percentiles_monotone_and_bounded(self, samples):
        dist = LatencyDistribution(samples)
        previous = dist.minimum()
        for percent in (0, 25, 50, 75, 90, 99, 99.9, 100):
            value = dist.percentile(percent)
            assert dist.minimum() <= value <= dist.maximum()
            assert value >= previous
            previous = value

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                    max_size=200))
    def test_percentile_is_a_sample(self, samples):
        dist = LatencyDistribution(samples)
        for percent in (50, 90, 99):
            assert dist.percentile(percent) in samples

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=2,
                    max_size=200))
    def test_cdf_properties(self, samples):
        dist = LatencyDistribution(samples)
        x, y = dist.cdf()
        assert list(x) == sorted(samples)
        assert y[-1] == 1.0
        assert all(0 < value <= 1.0 for value in y)


class TestSettingsProperties:
    @given(st.dictionaries(st.sampled_from("abcd"),
                           st.integers(min_value=-5, max_value=5),
                           min_size=1))
    def test_from_dict_round_trips_plain_data(self, data):
        settings = Settings.from_dict(data)
        assert settings.to_dict() == data
