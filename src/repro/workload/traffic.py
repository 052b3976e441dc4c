"""Traffic patterns.

A traffic pattern maps a source terminal to a destination terminal for
each generated message.  Patterns are factory-registered so workloads
configure them by name.  Patterns that are adversarial for a specific
topology (e.g. tornado for a torus) receive the network object and read
the attributes they need, mirroring the paper's §IV design: the workload
is customized to the network by passing the required network attributes
to the traffic model.

Packaged patterns:

``uniform_random``  -- uniform over all terminals (excl. self by default)
``bit_complement``  -- dst = N-1-src (the BC traffic of case study B)
``tornado``         -- half-way around every dimension (torus adversary)
``transpose``       -- matrix transpose over sqrt(N) x sqrt(N)
``bit_reverse``     -- reverse the bits of the terminal id
``neighbor``        -- fixed offset modulo N
``random_permutation`` -- a fixed random permutation drawn at build time
``all_to_one``      -- everything to one target (parking-lot stress)
``uniform_to_root`` -- uniform random constrained to cross the top level
                       of a folded Clos (case study A's "uniform random
                       to root")
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro import factory
from repro.config.spec import Block, KeySpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.settings import Settings
    from repro.net.network import Network


class TrafficError(ValueError):
    """Raised when a pattern is misconfigured for the network."""


class TrafficPattern:
    """Abstract source-to-destination mapping."""

    def __init__(
        self,
        settings: "Settings",
        num_terminals: int,
        network: "Network",
        rng: np.random.Generator,
    ):
        self.settings = settings
        self.num_terminals = num_terminals
        self.network = network
        self.rng = rng

    def destination(self, source: int) -> int:
        raise NotImplementedError

    def _check_source(self, source: int) -> None:
        if not 0 <= source < self.num_terminals:
            raise TrafficError(f"source {source} out of range")


#: A traffic pattern settings block: ``type`` selects the model.
TRAFFIC = Block(TrafficPattern, "type", "uniform_random")


def create_traffic_pattern(
    settings: "Settings",
    num_terminals: int,
    network: "Network",
    rng: np.random.Generator,
) -> TrafficPattern:
    return TRAFFIC.select(settings)(settings, num_terminals, network, rng)


@factory.register(TrafficPattern, "uniform_random")
class UniformRandomTraffic(TrafficPattern):
    """Uniform over all terminals; ``allow_self`` (else excluded)."""

    SETTINGS = {"allow_self": KeySpec("bool", False)}

    def __init__(self, settings, num_terminals, network, rng):
        super().__init__(settings, num_terminals, network, rng)
        self.allow_self = settings.read(type(self), "allow_self")
        if num_terminals < 2 and not self.allow_self:
            raise TrafficError("uniform_random without self needs >= 2 terminals")

    def destination(self, source: int) -> int:
        self._check_source(source)
        if self.allow_self:
            return int(self.rng.integers(self.num_terminals))
        dst = int(self.rng.integers(self.num_terminals - 1))
        return dst if dst < source else dst + 1


@factory.register(TrafficPattern, "bit_complement")
class BitComplementTraffic(TrafficPattern):
    """dst = N-1-src: every terminal pairs with its complement."""

    SETTINGS = {}

    def destination(self, source: int) -> int:
        self._check_source(source)
        return self.num_terminals - 1 - source


@factory.register(TrafficPattern, "tornado")
class TornadoTraffic(TrafficPattern):
    """Move ceil(k/2)-1 positions around every dimension of a lattice.

    Requires a network exposing ``widths`` and ``concentration`` (torus
    or HyperX).
    """

    SETTINGS = {}

    def __init__(self, settings, num_terminals, network, rng):
        super().__init__(settings, num_terminals, network, rng)
        if not hasattr(network, "widths"):
            raise TrafficError("tornado needs a lattice network (torus/hyperx)")

    def destination(self, source: int) -> int:
        from repro.topology.util import coords_to_index, index_to_coords

        self._check_source(source)
        widths = self.network.widths
        concentration = self.network.concentration
        router = source // concentration
        coords = list(index_to_coords(router, widths))
        for dim, width in enumerate(widths):
            shift = (width + 1) // 2 - 1
            if shift == 0 and width > 1:
                shift = width // 2  # degenerate small rings still move
            coords[dim] = (coords[dim] + shift) % width
        dst_router = coords_to_index(coords, widths)
        return dst_router * concentration + source % concentration


@factory.register(TrafficPattern, "transpose")
class TransposeTraffic(TrafficPattern):
    """Matrix transpose: requires N to be a perfect square."""

    SETTINGS = {}

    def __init__(self, settings, num_terminals, network, rng):
        super().__init__(settings, num_terminals, network, rng)
        root = int(round(num_terminals**0.5))
        if root * root != num_terminals:
            raise TrafficError(
                f"transpose needs a square terminal count, got {num_terminals}"
            )
        self.side = root

    def destination(self, source: int) -> int:
        self._check_source(source)
        row, col = divmod(source, self.side)
        return col * self.side + row


@factory.register(TrafficPattern, "bit_reverse")
class BitReverseTraffic(TrafficPattern):
    """Reverse the binary representation; N must be a power of two."""

    SETTINGS = {}

    def __init__(self, settings, num_terminals, network, rng):
        super().__init__(settings, num_terminals, network, rng)
        if num_terminals & (num_terminals - 1) != 0:
            raise TrafficError(
                f"bit_reverse needs a power-of-two terminal count, "
                f"got {num_terminals}"
            )
        self.bits = num_terminals.bit_length() - 1

    def destination(self, source: int) -> int:
        self._check_source(source)
        result = 0
        for bit in range(self.bits):
            if source & (1 << bit):
                result |= 1 << (self.bits - 1 - bit)
        return result


@factory.register(TrafficPattern, "neighbor")
class NeighborTraffic(TrafficPattern):
    """dst = (src + offset) mod N."""

    SETTINGS = {"offset": KeySpec("int", 1)}

    def __init__(self, settings, num_terminals, network, rng):
        super().__init__(settings, num_terminals, network, rng)
        self.offset = settings.read(type(self), "offset")

    def destination(self, source: int) -> int:
        self._check_source(source)
        return (source + self.offset) % self.num_terminals


@factory.register(TrafficPattern, "random_permutation")
class RandomPermutationTraffic(TrafficPattern):
    """A fixed permutation drawn once from the pattern's RNG."""

    SETTINGS = {}

    def __init__(self, settings, num_terminals, network, rng):
        super().__init__(settings, num_terminals, network, rng)
        self.permutation = rng.permutation(num_terminals)

    def destination(self, source: int) -> int:
        self._check_source(source)
        return int(self.permutation[source])


@factory.register(TrafficPattern, "all_to_one")
class AllToOneTraffic(TrafficPattern):
    """Everything converges on terminal ``target``."""

    SETTINGS = {"target": KeySpec("uint", 0)}

    def __init__(self, settings, num_terminals, network, rng):
        super().__init__(settings, num_terminals, network, rng)
        self.target = settings.read(type(self), "target")
        if self.target >= num_terminals:
            raise TrafficError(f"target {self.target} out of range")

    def destination(self, source: int) -> int:
        self._check_source(source)
        return self.target


@factory.register(TrafficPattern, "uniform_to_root")
class UniformToRootTraffic(TrafficPattern):
    """Uniform random constrained to cross the root of a folded Clos.

    The destination's most significant base-k digit differs from the
    source's, so the up*/down* path must ascend to the top level --
    case study A's "uniform random to root" pattern.
    """

    SETTINGS = {}

    def __init__(self, settings, num_terminals, network, rng):
        super().__init__(settings, num_terminals, network, rng)
        if not hasattr(network, "half_radix"):
            raise TrafficError("uniform_to_root needs a folded_clos network")

    def destination(self, source: int) -> int:
        self._check_source(source)
        k = self.network.half_radix
        n = self.network.num_levels
        subtree = k ** (n - 1)  # terminals under one top-level digit
        src_top = source // subtree
        other_top = int(self.rng.integers(k - 1))
        if other_top >= src_top:
            other_top += 1
        offset = int(self.rng.integers(subtree))
        return other_top * subtree + offset
