"""Message size distributions and injection processes."""

import numpy as np
import pytest

from repro import Settings
from repro.workload.injection import (
    INJECTION,
    BernoulliInjection,
    PeriodicInjection,
)
from repro.workload.size import (
    ConstantSize,
    ProbabilitySize,
    UniformSize,
    create_size_distribution,
)


def settings(**kwargs):
    return Settings.from_dict(kwargs)


class TestConstantSize:
    def test_sample_and_mean(self):
        dist = ConstantSize(settings(size=7), np.random.default_rng(0))
        assert dist.sample() == 7
        assert dist.mean() == 7.0

    def test_default_is_one_flit(self):
        dist = create_size_distribution(settings(), np.random.default_rng(0))
        assert dist.sample() == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ConstantSize(settings(size=0), np.random.default_rng(0))


class TestUniformSize:
    def test_range(self):
        dist = UniformSize(settings(min_size=2, max_size=5),
                           np.random.default_rng(0))
        samples = {dist.sample() for _ in range(300)}
        assert samples == {2, 3, 4, 5}
        assert dist.mean() == 3.5

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            UniformSize(settings(min_size=5, max_size=2),
                        np.random.default_rng(0))


class TestProbabilitySize:
    def test_bimodal_mix(self):
        dist = ProbabilitySize(
            settings(sizes=[1, 16], weights=[9, 1]), np.random.default_rng(0)
        )
        samples = [dist.sample() for _ in range(2000)]
        small = sum(1 for s in samples if s == 1)
        assert 0.85 < small / len(samples) < 0.95
        assert dist.mean() == pytest.approx(0.9 * 1 + 0.1 * 16)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbabilitySize(settings(sizes=[1], weights=[1, 2]),
                            np.random.default_rng(0))
        with pytest.raises(ValueError):
            ProbabilitySize(settings(sizes=[0], weights=[1]),
                            np.random.default_rng(0))
        with pytest.raises(ValueError):
            ProbabilitySize(settings(sizes=[1], weights=[0]),
                            np.random.default_rng(0))


class TestBernoulliInjection:
    def test_mean_rate_matches(self):
        """Long-run injected flit rate approximates the target."""
        process = BernoulliInjection(settings(), 0.25, 4.0,
                                     np.random.default_rng(0))
        # p = 0.25/4 = 1/16 messages per cycle.
        gaps = [process.next_gap() for _ in range(4000)]
        mean_gap = sum(gaps) / len(gaps)
        assert mean_gap == pytest.approx(16.0, rel=0.1)

    def test_gaps_at_least_one(self):
        process = BernoulliInjection(settings(), 1.0, 1.0,
                                     np.random.default_rng(0))
        assert all(process.next_gap() == 1 for _ in range(10))

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            BernoulliInjection(settings(), 1.5, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            BernoulliInjection(settings(), -0.1, 1.0, np.random.default_rng(0))

    def test_zero_rate_cannot_sample(self):
        process = BernoulliInjection(settings(), 0.0, 1.0,
                                     np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            process.next_gap()


class TestPeriodicInjection:
    def test_exact_period(self):
        process = PeriodicInjection(settings(), 0.25, 1.0,
                                    np.random.default_rng(0))
        gaps = [process.next_gap() for _ in range(8)]
        assert gaps == [4] * 8

    def test_fractional_period_averages_out(self):
        # p = 0.3 -> period 10/3: gaps must average 3.33.
        process = PeriodicInjection(settings(), 0.3, 1.0,
                                    np.random.default_rng(0))
        gaps = [process.next_gap() for _ in range(300)]
        assert sum(gaps) / len(gaps) == pytest.approx(10 / 3, rel=0.02)


class TestFactory:
    def test_default_is_bernoulli(self):
        config = settings()
        process = INJECTION.select(config)(config, 0.5, 1.0,
                                           np.random.default_rng(0))
        assert isinstance(process, BernoulliInjection)

    def test_periodic_by_name(self):
        config = settings(type="periodic")
        process = INJECTION.select(config)(config, 0.5, 1.0,
                                           np.random.default_rng(0))
        assert isinstance(process, PeriodicInjection)
