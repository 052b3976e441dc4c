"""A deliberately deadlock-prone torus routing algorithm.

Plain minimal dimension-order routing *without* the dateline VC scheme:
every ring's channel dependency graph is a cycle, so the escape CDG is
cyclic and ``sslint`` must flag it (rule G004).  Loaded by the lint
tests (and demonstrable via ``sslint --import``) to prove the graph
layer catches user routing algorithms that the packaged compatibility
lists cannot vouch for.
"""

from __future__ import annotations

from typing import List

from repro import factory
from repro.routing.base import Candidate, RoutingAlgorithm
from repro.topology.util import ring_distance


@factory.register(RoutingAlgorithm, "naive_torus_minimal")
class NaiveTorusMinimalRouting(RoutingAlgorithm):
    """Minimal DOR on a torus with no dateline: cyclic escape CDG."""

    topology = "torus"  # user-algorithm compatibility declaration

    def __init__(self, network, router, settings):
        super().__init__(network, router, settings)
        self.coords = router.address
        self.widths = network.widths

    def route(self, packet, input_port: int, input_vc: int) -> List[Candidate]:
        dst_router = self.network.terminal_router(packet.destination)
        if dst_router == self.router.router_id:
            port = self.network.terminal_port(packet.destination)
            return [(port, vc) for vc in range(self.router.num_vcs)]
        dst_coords = self.network.router_coords(dst_router)
        for dim, (own, dst) in enumerate(zip(self.coords, dst_coords)):
            if own == dst:
                continue
            _hops, direction = ring_distance(own, dst, self.widths[dim])
            port = self.network.port_for(dim, direction)
            return [(port, vc) for vc in range(self.router.num_vcs)]
        raise AssertionError("unreachable: not at destination router")
