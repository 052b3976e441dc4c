"""Dragonfly routing [Kim et al., ISCA'08].

``dragonfly_minimal`` -- the l-g-l minimal path: a local hop to the
gateway router holding the direct global channel, the global hop, and a
local hop to the destination router.

``dragonfly_valiant`` -- Valiant group balancing: minimal to a random
intermediate *group*, then minimal to the destination (worst case
l-g-l-g-l).

``dragonfly_ugal`` -- UGAL-L: at the source router, compare the sensed
congestion of the minimal first hop against a random Valiant first hop
(on the hop VC, weighted by group-level path lengths), and commit.

The two-phase algorithms run on the core in
:mod:`repro.routing.two_phase`.  VC discipline: the VC index equals the
number of router-to-router hops taken so far (clamped).  Minimal needs
``num_vcs >= 3``; the Valiant variants need ``num_vcs >= 5``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro import factory
from repro.routing.base import Candidate, RoutingAlgorithm
from repro.routing.two_phase import UGAL_SETTINGS, HopVcRouting, TwoPhaseRouting


class _DragonflyRoutingBase(HopVcRouting):
    topology = "dragonfly"
    MIN_VCS = 3

    def __init__(self, network, router, settings):
        super().__init__(network, router, settings)
        self.group, self.local = router.address

    @classmethod
    def vc_count_error(cls, num_vcs: int, network_settings) -> Optional[str]:
        if num_vcs < cls.MIN_VCS:
            return f"needs num_vcs >= {cls.MIN_VCS}, got {num_vcs}"
        return None

    def _minimal_port(self, dst_router: int) -> Optional[int]:
        """Next minimal hop toward a router, or None if we are there."""
        if dst_router == self.router.router_id:
            return None
        dst_group = self.network.router_group(dst_router)
        if dst_group == self.group:
            return self.network.local_port(
                self.local, dst_router % self.network.group_size
            )
        exit_local, global_port = self.network.global_route(self.group, dst_group)
        if exit_local == self.local:
            return global_port
        return self.network.local_port(self.local, exit_local)


@factory.register(RoutingAlgorithm, "dragonfly_minimal")
class DragonflyMinimalRouting(_DragonflyRoutingBase):
    """l-g-l minimal routing."""

    SETTINGS = {}

    reads_congestion = False

    def route(self, packet, input_port: int, input_vc: int) -> List[Candidate]:
        dst_router = self.network.terminal_router(packet.destination)
        port = self._minimal_port(dst_router)
        if port is None:
            return self._ejection(packet)
        return [(port, self._hop_vc(packet))]


class _TwoPhaseDragonflyRouting(_DragonflyRoutingBase, TwoPhaseRouting):
    """Two-phase routing whose intermediate is a group."""
    MIN_VCS = 5

    def _draw_intermediate(self, rng) -> int:
        return int(rng.integers(self.network.num_groups))

    def _region(self, router_id: int) -> int:
        return self.network.router_group(router_id)

    def _toward_intermediate(self, intermediate: int) -> Optional[int]:
        if intermediate == self.group:
            return None
        # Enter the group where its direct channel from here lands.
        entry_local, _port = self.network.global_route(intermediate, self.group)
        return self._minimal_port(
            intermediate * self.network.group_size + entry_local
        )

    def _hop_estimates(self, dst_router: int, intermediate: int) -> Tuple[int, int]:
        # Group-level: minimal <= 3 hops, Valiant two more.
        min_hops = 1 if self._region(dst_router) == self.group else 3
        return min_hops, min_hops + 2

    def _ugal_vc(self, packet) -> int:
        return self._hop_vc(packet)


@factory.register(RoutingAlgorithm, "dragonfly_valiant")
class DragonflyValiantRouting(_TwoPhaseDragonflyRouting):
    """Always detour through a random intermediate group."""

    SETTINGS = {}


@factory.register(RoutingAlgorithm, "dragonfly_ugal")
class DragonflyUgalRouting(_TwoPhaseDragonflyRouting):
    """UGAL-L over group-level Valiant paths."""

    SETTINGS = UGAL_SETTINGS

    reads_congestion = True
