"""HyperX / flattened butterfly routing.

``hyperx_dimension_order`` -- minimal DOR: resolve each dimension with
its single direct hop, in dimension order.  Deadlock-free with one VC
(dimension ordering makes the channel dependency graph acyclic).

``hyperx_valiant`` -- Valiant load balancing: route minimally to a
uniformly random intermediate router, then minimally to the
destination.  VCs increase with hop count (phase separation), so
``num_vcs`` must be at least the worst-case hop count.

``hyperx_ugal`` -- Universal Globally Adaptive Load-balancing [Singh],
the algorithm of case study B: at the source router the packet weighs
its minimal first hop against a random Valiant alternative (VC 0's
sensed congestion, times the router hops of each path) and commits.

Both two-phase algorithms run on the core in
:mod:`repro.routing.two_phase`, whose VC index is the number of hops
already taken; configurations whose worst-case path exceeds
``num_vcs`` hops are rejected.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro import factory
from repro.routing.base import Candidate, RoutingAlgorithm
from repro.routing.two_phase import UGAL_SETTINGS, HopVcRouting, TwoPhaseRouting


class _HyperXRoutingBase(HopVcRouting):
    topology = "hyperx"

    def __init__(self, network, router, settings):
        super().__init__(network, router, settings)
        self.coords = router.address
        self.widths = network.widths

    def _minimal_port(self, dst_router: int) -> Optional[int]:
        """The DOR next-hop port toward a router, or None if here."""
        dst_coords = self.network.router_coords(dst_router)
        for dim, (own, dst) in enumerate(zip(self.coords, dst_coords)):
            if own != dst:
                return self.network.port_for(dim, own, dst)
        return None


@factory.register(RoutingAlgorithm, "hyperx_dimension_order")
class HyperXDimensionOrderRouting(_HyperXRoutingBase):
    """Minimal dimension order routing."""

    SETTINGS = {}

    reads_congestion = False

    def route(self, packet, input_port: int, input_vc: int) -> List[Candidate]:
        dst_router = self.network.terminal_router(packet.destination)
        if dst_router == self.router.router_id:
            return self._ejection(packet)
        port = self._minimal_port(dst_router)
        vcs = list(range(self.router.num_vcs))
        rotation = packet.global_id % len(vcs)
        vcs = vcs[rotation:] + vcs[:rotation]
        return [(port, vc) for vc in vcs]


class _TwoPhaseHyperXRouting(_HyperXRoutingBase, TwoPhaseRouting):
    """Two-phase routing whose intermediate is a router."""

    # UGAL decides a packet for this router without a draw.
    _ugal_draws_for_local = False

    @classmethod
    def vc_count_error(cls, num_vcs: int, network_settings) -> Optional[str]:
        widths = network_settings.get("dimension_widths", None)
        if not isinstance(widths, list):
            return None  # the topology rejects it
        max_hops = 2 * len(widths)  # valiant worst case
        if num_vcs < max_hops:
            return (f"needs num_vcs >= {max_hops} (2 hops per dimension), "
                    f"got {num_vcs}")
        return None

    def _region_count(self) -> int:
        return len(self.network.routers)

    def _region(self, router_id: int) -> int:
        return router_id

    def _toward_intermediate(self, intermediate: int) -> Optional[int]:
        return self._minimal_port(intermediate)

    def _hop_estimates(self, dst_router: int, intermediate: int) -> Tuple[int, int]:
        dst = self.network.router_coords(dst_router)
        mid = self.network.router_coords(intermediate)
        return (_differing(self.coords, dst),
                _differing(self.coords, mid) + _differing(mid, dst))

    def _ugal_vc(self, packet) -> int:
        return 0


def _differing(a, b) -> int:
    """Router hops between two HyperX coordinates: one per differing dimension."""
    return sum(1 for x, y in zip(a, b) if x != y)


@factory.register(RoutingAlgorithm, "hyperx_valiant")
class HyperXValiantRouting(_TwoPhaseHyperXRouting):
    """Valiant load balancing: always via a random intermediate."""

    SETTINGS = {}


@factory.register(RoutingAlgorithm, "hyperx_ugal")
class HyperXUgalRouting(_TwoPhaseHyperXRouting):
    """UGAL: per-packet source-routed choice of minimal vs Valiant."""

    SETTINGS = UGAL_SETTINGS

    reads_congestion = True
