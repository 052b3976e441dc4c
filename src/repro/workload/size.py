"""Message size distributions.

Factory-registered models mapping each generated message to a size in
flits.  ``mean()`` is used by injection processes to convert a flit
injection rate into a message arrival rate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from repro import factory
from repro.config.spec import Block, KeySpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.settings import Settings


class MessageSizeDistribution:
    """Abstract message size model."""

    def __init__(self, settings: "Settings", rng: np.random.Generator):
        self.settings = settings
        self.rng = rng

    def sample(self) -> int:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError


#: A message size settings block: ``type`` selects the model.
MESSAGE_SIZE = Block(MessageSizeDistribution, "type", "constant")


def create_size_distribution(
    settings: "Settings", rng: np.random.Generator
) -> MessageSizeDistribution:
    return MESSAGE_SIZE.select(settings)(settings, rng)


@factory.register(MessageSizeDistribution, "constant")
class ConstantSize(MessageSizeDistribution):
    """Every message is ``size`` flits."""

    SETTINGS = {"size": KeySpec("uint", 1, minimum=1)}

    def __init__(self, settings, rng):
        super().__init__(settings, rng)
        self.size = settings.read(type(self), "size")

    def sample(self) -> int:
        return self.size

    def mean(self) -> float:
        return float(self.size)


@factory.register(MessageSizeDistribution, "uniform")
class UniformSize(MessageSizeDistribution):
    """Uniform integer size in [``min_size``, ``max_size``]."""

    SETTINGS = {
        "min_size": KeySpec("uint", 1, minimum=1),
        "max_size": KeySpec("uint", minimum=1),
    }

    def __init__(self, settings, rng):
        super().__init__(settings, rng)
        self.min_size = settings.read(type(self), "min_size")
        self.max_size = settings.read(type(self), "max_size")
        if self.min_size > self.max_size:
            raise ValueError(
                f"need 1 <= min_size <= max_size, got "
                f"[{self.min_size}, {self.max_size}]"
            )

    def sample(self) -> int:
        return int(self.rng.integers(self.min_size, self.max_size + 1))

    def mean(self) -> float:
        return (self.min_size + self.max_size) / 2.0


@factory.register(MessageSizeDistribution, "probability")
class ProbabilitySize(MessageSizeDistribution):
    """Discrete distribution: ``sizes`` with matching ``weights``.

    Models bimodal request/response mixes (e.g. 90% 1-flit reads,
    10% 16-flit writes).
    """

    SETTINGS = {
        "sizes": KeySpec("int_list", minimum=1),
        "weights": KeySpec("list"),
    }

    def __init__(self, settings, rng):
        super().__init__(settings, rng)
        self.sizes: List[int] = settings.read(type(self), "sizes")
        weights = settings.read(type(self), "weights")
        if len(weights) != len(self.sizes) or not self.sizes:
            raise ValueError("sizes and weights must be equal-length, non-empty")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self.probabilities = np.array([w / total for w in weights])

    def sample(self) -> int:
        index = int(self.rng.choice(len(self.sizes), p=self.probabilities))
        return self.sizes[index]

    def mean(self) -> float:
        return float(np.dot(self.sizes, self.probabilities))
