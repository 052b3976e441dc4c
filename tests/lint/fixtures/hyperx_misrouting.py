"""Deliberately broken HyperX routing algorithms for graph-layer tests.

Three user-model mistakes the ``sslint`` graph layer must catch on a
HyperX, mirroring ``naive_routing.py``'s torus example:

* ``hyperx_ring_step`` -- resolves each dimension with unit ring steps
  (treating the all-to-all dimension like a torus ring) on a single VC
  class: every dimension's channel dependency graph is a cycle, so the
  escape CDG is cyclic (G004).
* ``hyperx_wrong_eject`` -- always ejects at terminal port 0, so with
  concentration > 1 a packet for any other terminal of the router
  leaves at the wrong interface (G006).
* ``hyperx_dead_end`` -- returns no candidates for any packet that
  still has router hops to make (G003).
"""

from __future__ import annotations

from typing import List

from repro import factory
from repro.routing.base import Candidate, RoutingAlgorithm


class _BrokenHyperXBase(RoutingAlgorithm):
    topology = "hyperx"  # user-algorithm compatibility declaration

    def __init__(self, network, router, settings):
        super().__init__(network, router, settings)
        self.coords = router.address
        self.widths = network.widths

    def _ejection(self, packet) -> List[Candidate]:
        port = self.network.terminal_port(packet.destination)
        return [(port, vc) for vc in range(self.router.num_vcs)]


@factory.register(RoutingAlgorithm, "hyperx_ring_step")
class HyperXRingStepRouting(_BrokenHyperXBase):
    """Unit ring steps per dimension, one VC class: cyclic escape CDG."""

    def route(self, packet, input_port: int, input_vc: int) -> List[Candidate]:
        dst_router = self.network.terminal_router(packet.destination)
        if dst_router == self.router.router_id:
            return self._ejection(packet)
        dst_coords = self.network.router_coords(dst_router)
        for dim, (own, dst) in enumerate(zip(self.coords, dst_coords)):
            if own == dst:
                continue
            step = (own + 1) % self.widths[dim]
            port = self.network.port_for(dim, own, step)
            return [(port, vc) for vc in range(self.router.num_vcs)]
        raise AssertionError("unreachable: not at destination router")


@factory.register(RoutingAlgorithm, "hyperx_wrong_eject")
class HyperXWrongEjectRouting(_BrokenHyperXBase):
    """Minimal DOR, but every ejection goes to terminal port 0."""

    def route(self, packet, input_port: int, input_vc: int) -> List[Candidate]:
        dst_router = self.network.terminal_router(packet.destination)
        if dst_router == self.router.router_id:
            return [(0, vc) for vc in range(self.router.num_vcs)]
        dst_coords = self.network.router_coords(dst_router)
        for dim, (own, dst) in enumerate(zip(self.coords, dst_coords)):
            if own != dst:
                port = self.network.port_for(dim, own, dst)
                return [(port, vc) for vc in range(self.router.num_vcs)]
        raise AssertionError("unreachable: not at destination router")


@factory.register(RoutingAlgorithm, "hyperx_dead_end")
class HyperXDeadEndRouting(_BrokenHyperXBase):
    """No candidates unless the packet is already at its router."""

    def route(self, packet, input_port: int, input_vc: int) -> List[Candidate]:
        dst_router = self.network.terminal_router(packet.destination)
        if dst_router == self.router.router_id:
            return self._ejection(packet)
        return []
