"""Dragonfly routing [Kim et al., ISCA'08].

``dragonfly_minimal`` -- the l-g-l minimal path: a local hop to the
gateway router holding the direct global channel, the global hop, and a
local hop to the destination router.

``dragonfly_valiant`` -- Valiant group balancing: minimal to a random
intermediate *group*, then minimal to the destination (worst case
l-g-l-g-l).

``dragonfly_ugal`` -- UGAL-L: at the source router, compare the sensed
congestion of the minimal first hop against a random Valiant first hop,
weighted by path lengths, and commit.

VC discipline: the VC index equals the number of router-to-router hops
taken so far (clamped).  Minimal needs ``num_vcs >= 3``; the Valiant
variants need ``num_vcs >= 5``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro import factory
from repro.routing.base import Candidate, RoutingAlgorithm, RoutingError


class _DragonflyRoutingBase(RoutingAlgorithm):
    MIN_VCS = 3

    def __init__(self, network, router, input_port, settings):
        super().__init__(network, router, input_port, settings)
        if router.num_vcs < self.MIN_VCS:
            raise RoutingError(
                f"{type(self).__name__} needs num_vcs >= {self.MIN_VCS}, "
                f"got {router.num_vcs}"
            )
        self.group, self.local = router.address
        self.concentration = network.concentration

    def _is_terminal_input(self) -> bool:
        return self.input_port < self.concentration

    def _ejection(self, packet) -> List[Candidate]:
        port = self.network.terminal_port(packet.destination)
        return [(port, vc) for vc in range(self.router.num_vcs)]

    def _hop_vc(self, packet) -> int:
        return min(packet.hop_count, self.router.num_vcs - 1)

    def _minimal_port_toward_router(self, dst_router: int) -> Optional[int]:
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

    def _entry_router(self, dst_group: int) -> int:
        """The router in ``dst_group`` where the direct channel lands."""
        entry_local, _port = self.network.global_route(dst_group, self.group)
        return dst_group * self.network.group_size + entry_local


@factory.register(RoutingAlgorithm, "dragonfly_minimal")
class DragonflyMinimalRouting(_DragonflyRoutingBase):
    """l-g-l minimal routing."""
    reads_congestion = False

    def route(self, packet, input_vc: int) -> List[Candidate]:
        dst_router = self.network.terminal_router(packet.destination)
        port = self._minimal_port_toward_router(dst_router)
        if port is None:
            return self._ejection(packet)
        return [(port, self._hop_vc(packet))]


class _TwoPhaseDragonflyRouting(_DragonflyRoutingBase):
    MIN_VCS = 5

    def __init__(self, network, router, input_port, settings):
        super().__init__(network, router, input_port, settings)
        self._rng = network.random.generator(
            f"routing.{router.full_name}.in{input_port}"
        )

    def _pick_intermediate_group(self) -> int:
        return int(self._rng.integers(self.network.num_groups))

    def _two_phase_route(self, packet) -> List[Candidate]:
        state = packet.routing_state
        vc = self._hop_vc(packet)
        if state.get("val_phase") == 0:
            target_group = state["val_group"]
            if self.group == target_group:
                state["val_phase"] = 1
            else:
                port = self._minimal_port_toward_router(
                    self._entry_router(target_group)
                )
                if port is None:  # already at the entry router
                    state["val_phase"] = 1
                else:
                    return [(port, vc)]
        dst_router = self.network.terminal_router(packet.destination)
        port = self._minimal_port_toward_router(dst_router)
        if port is None:
            return self._ejection(packet)
        return [(port, vc)]


@factory.register(RoutingAlgorithm, "dragonfly_valiant")
class DragonflyValiantRouting(_TwoPhaseDragonflyRouting):
    """Always detour through a random intermediate group."""
    reads_congestion = False

    def route(self, packet, input_vc: int) -> List[Candidate]:
        state = packet.routing_state
        if self._is_terminal_input() and "val_phase" not in state:
            dst_group = self.network.router_group(
                self.network.terminal_router(packet.destination)
            )
            intermediate = self._pick_intermediate_group()
            if intermediate in (self.group, dst_group):
                state["val_phase"] = 1
            else:
                state["val_phase"] = 0
                state["val_group"] = intermediate
                packet.non_minimal = True
        return self._two_phase_route(packet)


@factory.register(RoutingAlgorithm, "dragonfly_ugal")
class DragonflyUgalRouting(_TwoPhaseDragonflyRouting):
    """UGAL-L over group-level Valiant paths.

    Settings:
        ``ugal_bias`` -- additive bias favoring the minimal path.
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
        dst_group = self.network.router_group(dst_router)
        intermediate = self._pick_intermediate_group()
        min_port = self._minimal_port_toward_router(dst_router)
        if min_port is None or intermediate in (self.group, dst_group):
            state["val_phase"] = 1
            return
        val_port = self._minimal_port_toward_router(self._entry_router(intermediate))
        if val_port is None:
            state["val_phase"] = 1
            return
        # Group-level hop estimates: minimal <= 3, valiant <= 5.
        min_hops = 1 if dst_group == self.group else 3
        val_hops = min_hops + 2
        q_min = self.congestion(min_port, self._hop_vc(packet))
        q_val = self.congestion(val_port, self._hop_vc(packet))
        if q_min * min_hops <= q_val * val_hops + self.bias:
            state["val_phase"] = 1
        else:
            state["val_phase"] = 0
            state["val_group"] = intermediate
            packet.non_minimal = True
