"""Injection processes.

An injection process turns a target flit injection rate (flits per
terminal per channel cycle, 1.0 = line rate) into a stream of message
generation times.  The packaged ``bernoulli`` process generates a
message each cycle with probability ``rate / mean_message_size``,
implemented efficiently by sampling geometric inter-arrival gaps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro import factory
from repro.config.spec import Block

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.settings import Settings


class InjectionProcess:
    """Abstract message arrival process (units: channel cycles)."""

    def __init__(
        self,
        settings: "Settings",
        rate: float,
        mean_message_size: float,
        rng: np.random.Generator,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"injection rate must be in [0, 1], got {rate}")
        if mean_message_size < 1.0:
            raise ValueError("mean message size must be >= 1 flit")
        self.settings = settings
        self.rate = rate
        self.mean_message_size = mean_message_size
        self.rng = rng

    @property
    def message_probability(self) -> float:
        """Per-cycle probability of starting a new message."""
        return self.rate / self.mean_message_size

    def next_gap(self) -> int:
        """Cycles until the next message generation (>= 1)."""
        raise NotImplementedError


#: An injection process settings block: ``type`` selects the model.
INJECTION = Block(InjectionProcess, "type", "bernoulli")


@factory.register(InjectionProcess, "bernoulli")
class BernoulliInjection(InjectionProcess):
    """Independent per-cycle coin flips (geometric gaps)."""

    SETTINGS = {}

    def next_gap(self) -> int:
        p = self.message_probability
        if p <= 0.0:
            raise RuntimeError("cannot sample gaps at zero injection rate")
        if p >= 1.0:
            return 1
        return int(self.rng.geometric(p))


@factory.register(InjectionProcess, "periodic")
class PeriodicInjection(InjectionProcess):
    """Deterministic arrivals every round(1/p) cycles."""

    SETTINGS = {}

    def __init__(self, settings, rate, mean_message_size, rng):
        super().__init__(settings, rate, mean_message_size, rng)
        self._leftover = 0.0

    def next_gap(self) -> int:
        p = self.message_probability
        if p <= 0.0:
            raise RuntimeError("cannot sample gaps at zero injection rate")
        exact = 1.0 / p + self._leftover
        gap = max(1, int(exact))
        self._leftover = exact - gap
        return gap
