"""Torus routing algorithms.

``torus_dimension_order`` -- deterministic dimension order routing (DOR)
with dateline VC classes, the algorithm of case study C (Table I).
Packets resolve dimension 0 completely, then dimension 1, and so on.
Deadlock freedom on each ring uses the dateline scheme [11]: packets
start a dimension in VC class 0 and switch to class 1 on the hop that
crosses the wrap-around link; since DOR travel within a dimension is
monotone, at most one crossing occurs.  With ``V`` virtual channels,
even VCs form class 0 and odd VCs class 1 (so V must be even and >= 2).

``torus_minimal_adaptive`` -- Duato-style minimal adaptive routing: any
profitable dimension may be taken on the adaptive VC class, ordered by
sensed congestion, with DOR on the escape class as the last candidate.
The escape class keeps the network deadlock-free; the adaptive class
(the upper half of the VCs) may be claimed in any order.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro import factory
from repro.routing.base import Candidate, RoutingAlgorithm, RoutingError
from repro.topology.util import product, ring_distance


class _TorusRoutingBase(RoutingAlgorithm):
    """Shared coordinate helpers for torus routing."""

    topology = "torus"

    def __init__(self, network, router, settings):
        super().__init__(network, router, settings)
        self.coords = router.address
        self.widths = network.widths
        self.concentration = network.concentration
        # Per dimension, the dateline state of a packet that starts
        # traveling it here: ``(dim, start)``, shared by every packet.
        self._dateline_starts = tuple(enumerate(self.coords))
        # Terminal port -> its ejection response, validated once.
        self._eject = [
            self.validated([(port, vc) for vc in range(router.num_vcs)])
            for port in range(self.concentration)
        ]

    def _first_differing_dimension(self, dst_coords) -> int:
        for dim, (own, dst) in enumerate(zip(self.coords, dst_coords)):
            if own != dst:
                return dim
        raise RoutingError("no differing dimension at a non-destination router")

    def _dateline_class(self, packet, dim: int, direction: int) -> int:
        """0 before the dateline, 1 at or after the wrap hop.

        Geometric test: remember where the packet started traveling in
        this dimension (its ``routing_state`` is ``(dim, start)``);
        since minimal travel within a ring is monotone, it has crossed
        the wrap iff it moved "backwards" relative to its start.  The
        hop that wraps itself already uses class 1.
        """
        own = self.coords[dim]
        width = self.widths[dim]
        state = packet.routing_state
        if state is None or state[0] != dim:
            state = packet.routing_state = self._dateline_starts[dim]
        start = state[1]
        crossed = (direction == +1 and own < start) or (
            direction == -1 and own > start
        )
        wraps = (direction == +1 and own == width - 1) or (
            direction == -1 and own == 0
        )
        return 1 if (crossed or wraps) else 0


@factory.register(RoutingAlgorithm, "torus_dimension_order")
class TorusDimensionOrderRouting(_TorusRoutingBase):
    """Deterministic DOR with dateline VC classes.

    The first mixed-radix digit of the destination router index that
    differs from this router's coordinate names the dimension, its ring
    offset the direction; every response is prebuilt and validated at
    construction, so ``route`` keeps no per-destination state.
    """

    SETTINGS = {}

    reads_congestion = False

    def __init__(self, network, router, settings):
        super().__init__(network, router, settings)
        num_vcs = router.num_vcs
        # (dimension, digit stride, width, own digit), in routing order.
        self._digits = tuple(
            (dim, product(self.widths[:dim]), width, own)
            for dim, (width, own) in enumerate(zip(self.widths, self.coords))
        )
        # _candidates[2 * dim + (direction == -1)][dateline class][rotation]:
        # even VCs form class 0, odd VCs class 1, rotated per packet;
        # each validated once.
        half = self._rotations = num_vcs // 2
        self._candidates = tuple(
            tuple(
                tuple(self.validated([(port, vc) for vc in vcs[rot:] + vcs[:rot]])
                      for rot in range(half))
                for vcs in (list(range(0, num_vcs, 2)),
                            list(range(1, num_vcs, 2)))
            )
            for dim in range(len(self.widths))
            for port in (network.port_for(dim, +1), network.port_for(dim, -1))
        )

    @classmethod
    def vc_count_error(cls, num_vcs: int, network_settings) -> Optional[str]:
        if num_vcs < 2 or num_vcs % 2 != 0:
            return ("needs an even num_vcs >= 2 for the dateline scheme, "
                    f"got {num_vcs}")
        return None

    @classmethod
    def injection_vcs(cls, num_vcs: int) -> List[int]:
        # Packets enter the network in dateline class 0 (even VCs).
        return [vc for vc in range(num_vcs) if vc % 2 == 0]

    def route(self, packet, input_port: int, input_vc: int) -> List[Candidate]:
        destination = packet.message.destination
        dst_router = destination // self.concentration
        for dim, stride, width, own in self._digits:
            offset = (dst_router // stride - own) % width
            if offset:
                break
        else:
            return self._eject[destination % self.concentration]
        # Shortest way round; a tie (exactly half way) goes positive.
        direction = 1 if offset + offset <= width else -1
        vc_class = self._dateline_class(packet, dim, direction)
        return self._candidates[dim + dim + (direction < 0)][vc_class][
            packet.global_id % self._rotations
        ]


@factory.register(RoutingAlgorithm, "torus_minimal_adaptive")
class TorusMinimalAdaptiveRouting(_TorusRoutingBase):
    """Minimal adaptive routing with a DOR escape class.

    VC layout: the lower half of the VCs is the escape class (even/odd
    dateline pairs, exactly as ``torus_dimension_order``); the upper
    half is the fully adaptive class.  Needs ``num_vcs`` divisible by 4.
    """

    SETTINGS = {}

    def __init__(self, network, router, settings):
        super().__init__(network, router, settings)
        self.escape_vcs = router.num_vcs // 2

    @classmethod
    def vc_count_error(cls, num_vcs: int, network_settings) -> Optional[str]:
        if num_vcs < 4 or num_vcs % 4 != 0:
            return ("needs num_vcs divisible by 4 (escape pairs + adaptive "
                    f"class), got {num_vcs}")
        return None

    @classmethod
    def injection_vcs(cls, num_vcs: int) -> List[int]:
        return [vc for vc in range(num_vcs // 2) if vc % 2 == 0]

    def route(self, packet, input_port: int, input_vc: int) -> List[Candidate]:
        dst_router = self.network.terminal_router(packet.destination)
        if dst_router == self.router.router_id:
            return self._eject[self.network.terminal_port(packet.destination)]
        dst_coords = self.network.router_coords(dst_router)

        # Adaptive candidates: every profitable dimension, least
        # congested first, on the adaptive (upper-half) VCs.
        profitable: List[Tuple[float, int]] = []
        for dim, (own, dst) in enumerate(zip(self.coords, dst_coords)):
            if own == dst:
                continue
            _hops, direction = ring_distance(own, dst, self.widths[dim])
            port = self.network.port_for(dim, direction)
            adaptive_vcs = range(self.escape_vcs, self.router.num_vcs)
            congestion = self.port_congestion(port, adaptive_vcs)
            profitable.append((congestion, port))
        profitable.sort()
        candidates: List[Candidate] = [
            (port, vc)
            for _congestion, port in profitable
            for vc in range(self.escape_vcs, self.router.num_vcs)
        ]

        # Escape candidates: plain DOR with datelines on the lower half.
        dim = self._first_differing_dimension(dst_coords)
        width = self.widths[dim]
        _hops, direction = ring_distance(self.coords[dim], dst_coords[dim], width)
        port = self.network.port_for(dim, direction)
        vc_class = self._dateline_class(packet, dim, direction)
        candidates.extend(
            (port, vc)
            for vc in range(self.escape_vcs)
            if vc % 2 == vc_class
        )
        return candidates
