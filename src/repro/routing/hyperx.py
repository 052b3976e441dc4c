"""HyperX / flattened butterfly routing.

``hyperx_dimension_order`` -- minimal DOR: resolve each dimension with
its single direct hop, in dimension order.  Deadlock-free with one VC
(dimension ordering makes the channel dependency graph acyclic).

``hyperx_valiant`` -- Valiant load balancing: route minimally to a
uniformly random intermediate router, then minimally to the
destination.  VCs increase with hop count (phase separation), so
``num_vcs`` must be at least the worst-case hop count.

``hyperx_ugal`` -- Universal Globally Adaptive Load-balancing [Singh],
the algorithm of case study B: at the source router the packet compares
the sensed congestion of its minimal first hop against a random Valiant
alternative, each weighted by path length, and commits to whichever
wins::

    q_min * h_min <= q_val * h_val + bias   ->  go minimal

The congestion values come from the router's congestion sensor, so the
credit accounting style (VC vs port granularity; output, downstream, or
both credit pools) and the sensing latency directly shape UGAL's
decisions -- which is precisely what §VI-B studies.

VC discipline for all non-minimal options: the VC index equals the
number of router-to-router hops already taken (clamped to the top VC).
Every hop moves to a strictly higher VC until the clamp, which breaks
cyclic dependencies for paths up to ``num_vcs`` hops; configurations
whose worst-case path exceeds ``num_vcs`` hops are rejected.
"""

from __future__ import annotations

from typing import List, Optional

from repro import factory
from repro.routing.base import Candidate, RoutingAlgorithm, RoutingError


class _HyperXRoutingBase(RoutingAlgorithm):
    def __init__(self, network, router, input_port, settings):
        super().__init__(network, router, input_port, settings)
        self.coords = router.address
        self.widths = network.widths
        self.concentration = network.concentration

    def _is_terminal_input(self) -> bool:
        return self.input_port < self.concentration

    def _ejection(self, packet) -> List[Candidate]:
        port = self.network.terminal_port(packet.destination)
        return [(port, vc) for vc in range(self.router.num_vcs)]

    def _minimal_port_toward(self, dst_router: int) -> Optional[int]:
        """The DOR next-hop port toward a router, or None if here."""
        dst_coords = self.network.router_coords(dst_router)
        for dim, (own, dst) in enumerate(zip(self.coords, dst_coords)):
            if own != dst:
                return self.network.port_for(dim, own, dst)
        return None

    def _hop_vc(self, packet) -> int:
        return min(packet.hop_count, self.router.num_vcs - 1)


@factory.register(RoutingAlgorithm, "hyperx_dimension_order")
class HyperXDimensionOrderRouting(_HyperXRoutingBase):
    """Minimal dimension order routing."""
    reads_congestion = False

    def route(self, packet, input_vc: int) -> List[Candidate]:
        dst_router = self.network.terminal_router(packet.destination)
        if dst_router == self.router.router_id:
            return self._ejection(packet)
        port = self._minimal_port_toward(dst_router)
        vcs = list(range(self.router.num_vcs))
        rotation = packet.global_id % len(vcs)
        vcs = vcs[rotation:] + vcs[:rotation]
        return [(port, vc) for vc in vcs]


class _TwoPhaseHyperXRouting(_HyperXRoutingBase):
    """Shared Valiant machinery: phase 0 to the intermediate, phase 1 home."""

    def __init__(self, network, router, input_port, settings):
        super().__init__(network, router, input_port, settings)
        max_hops = 2 * len(self.widths)  # valiant worst case
        if router.num_vcs < max_hops:
            raise RoutingError(
                f"{type(self).__name__} needs num_vcs >= {max_hops} "
                f"(2 hops per dimension), got {router.num_vcs}"
            )
        self._rng = network.random.generator(
            f"routing.{router.full_name}.in{input_port}"
        )

    def _pick_intermediate(self, packet) -> int:
        num_routers = len(self.network.routers)
        return int(self._rng.integers(num_routers))

    def _two_phase_route(self, packet) -> List[Candidate]:
        dst_router = self.network.terminal_router(packet.destination)
        state = packet.routing_state
        vc = self._hop_vc(packet)
        if state.get("val_phase") == 0:
            intermediate = state["val_intermediate"]
            port = self._minimal_port_toward(intermediate)
            if port is None:  # reached the intermediate: switch phases
                state["val_phase"] = 1
            else:
                return [(port, vc)]
        if dst_router == self.router.router_id:
            return self._ejection(packet)
        return [(self._minimal_port_toward(dst_router), vc)]


@factory.register(RoutingAlgorithm, "hyperx_valiant")
class HyperXValiantRouting(_TwoPhaseHyperXRouting):
    """Valiant load balancing: always via a random intermediate."""
    reads_congestion = False

    def route(self, packet, input_vc: int) -> List[Candidate]:
        state = packet.routing_state
        if self._is_terminal_input() and "val_phase" not in state:
            dst_router = self.network.terminal_router(packet.destination)
            intermediate = self._pick_intermediate(packet)
            if intermediate in (self.router.router_id, dst_router):
                state["val_phase"] = 1  # degenerate: go minimal
            else:
                state["val_phase"] = 0
                state["val_intermediate"] = intermediate
                packet.non_minimal = True
                packet.intermediate = intermediate
        return self._two_phase_route(packet)


@factory.register(RoutingAlgorithm, "hyperx_ugal")
class HyperXUgalRouting(_TwoPhaseHyperXRouting):
    """UGAL: per-packet source-routed choice of minimal vs Valiant.

    Settings:
        ``ugal_bias`` -- additive bias favoring the minimal path
            (default 0.0, in sensed-congestion units).
    """

    def __init__(self, network, router, input_port, settings):
        super().__init__(network, router, input_port, settings)
        self.bias = settings.get_float("ugal_bias", 0.0)

    def route(self, packet, input_vc: int) -> List[Candidate]:
        state = packet.routing_state
        if self._is_terminal_input() and "val_phase" not in state:
            self._decide(packet)
        return self._two_phase_route(packet)

    def _decide(self, packet) -> None:
        state = packet.routing_state
        dst_router = self.network.terminal_router(packet.destination)
        if dst_router == self.router.router_id:
            state["val_phase"] = 1  # local delivery, nothing to balance
            return
        intermediate = self._pick_intermediate(packet)
        if intermediate in (self.router.router_id, dst_router):
            state["val_phase"] = 1
            return
        source_coords = self.coords
        min_port = self._minimal_port_toward(dst_router)
        val_port = self._minimal_port_toward(intermediate)
        min_hops = self._router_hops(dst_router)
        val_hops = self._router_hops(intermediate) + self._hops_between(
            intermediate, dst_router
        )
        q_min = self.congestion(min_port, 0)
        q_val = self.congestion(val_port, 0)
        if q_min * min_hops <= q_val * val_hops + self.bias:
            state["val_phase"] = 1
        else:
            state["val_phase"] = 0
            state["val_intermediate"] = intermediate
            packet.non_minimal = True
            packet.intermediate = intermediate

    def _router_hops(self, other_router: int) -> int:
        other = self.network.router_coords(other_router)
        return sum(1 for a, b in zip(self.coords, other) if a != b)

    def _hops_between(self, router_a: int, router_b: int) -> int:
        a = self.network.router_coords(router_a)
        b = self.network.router_coords(router_b)
        return sum(1 for x, y in zip(a, b) if x != y)
