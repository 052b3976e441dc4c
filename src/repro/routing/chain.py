"""Chain routing for the parking-lot stress topology (§IV-B).

Move toward the destination router along the chain; deadlock-free with
one VC per direction since each direction of a path graph is acyclic.
All VCs are admissible (the two directions never form a cycle through
a buffer because a packet travels in only one direction).
"""

from __future__ import annotations

from typing import List

from repro import factory
from repro.routing.base import Candidate, RoutingAlgorithm


@factory.register(RoutingAlgorithm, "chain")
class ChainRouting(RoutingAlgorithm):
    """Left/right routing on a bidirectional chain."""

    SETTINGS = {}

    topology = "parking_lot"

    def route(self, packet, input_port: int, input_vc: int) -> List[Candidate]:
        network = self.network
        own = self.router.address[0]
        dst_router = network.terminal_router(packet.destination)
        num_vcs = self.router.num_vcs
        if dst_router == own:
            port = network.terminal_port(packet.destination)
        elif dst_router < own:
            port = network.down_port
        else:
            port = network.up_port
        return [(port, vc) for vc in range(num_vcs)]
