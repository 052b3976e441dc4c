"""Folded-Clos routing: deterministic and adaptive uprouting.

Both algorithms use the classic up*/down* scheme of the k-ary n-tree:
ascend until reaching an ancestor of the destination, then descend
deterministically by destination digit.  They differ only in how the up
port is chosen:

``clos_deterministic`` -- a hash of (source, destination) picks the up
port at every level, spreading pairs across the fabric while keeping
each pair's path fixed (in-order delivery per pair).

``clos_adaptive`` -- the adaptive uprouting of case study A (after Kim
et al., "Adaptive Routing in High-Radix Clos Networks"): each packet
chooses the *least congested* up port, as reported by the router's
congestion sensor.  Because the sensor's view is delayed by its
propagation latency, stale values make many input ports' routing
decisions bombard the same seemingly-good output -- the effect §VI-A
quantifies.

Up*/down* routing is deadlock-free with a single VC (the channel
dependency graph of a tree orientation is acyclic), so all VCs are
admissible everywhere and packets may inject on any VC.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro import factory
from repro.routing.base import Candidate, RoutingAlgorithm


class _ClosRoutingBase(RoutingAlgorithm):
    """Shared up*/down* structure; subclasses order the up ports."""

    topology = "folded_clos"

    def __init__(self, network, router, settings):
        super().__init__(network, router, settings)
        self.level, self.index = router.address
        self.half_radix = k = network.half_radix
        self.num_levels = network.num_levels
        # This router is an ancestor of terminal t iff
        # t // k**(level + 1) == index // k**level, and then descends
        # (or ejects at level 0) on port (t // k**level) % k.
        self._stride = k**self.level
        self._subtree = k * self._stride
        self._subtree_id = self.index // self._stride
        # Per output port, its candidate on every VC: responses are built
        # from these, and a down response is one, validated once.
        self._port_candidates: List[Tuple[Candidate, ...]] = [
            tuple((port, vc) for vc in range(router.num_vcs))
            for port in range(router.num_ports)
        ]
        for port, candidates in enumerate(self._port_candidates):
            if router.port_is_wired(port):
                self.validated(candidates)

    def route(self, packet, input_port: int, input_vc: int) -> Sequence[Candidate]:
        dst = packet.message.destination
        candidates = self._port_candidates
        if dst // self._subtree == self._subtree_id:
            return candidates[dst // self._stride % self.half_radix]
        return [
            candidate
            for port in self._ordered_up_ports(packet)
            for candidate in candidates[port]
        ]

    def _ordered_up_ports(self, packet) -> List[int]:
        raise NotImplementedError


@factory.register(RoutingAlgorithm, "clos_deterministic")
class ClosDeterministicRouting(_ClosRoutingBase):
    """Hash-based deterministic uprouting (in-order per src/dst pair)."""

    SETTINGS = {}

    reads_congestion = False

    def _ordered_up_ports(self, packet) -> List[int]:
        k = self.half_radix
        mix = (
            packet.source * 2654435761 + packet.destination * 40503 + self.level
        ) & 0xFFFFFFFF
        chosen = mix % k
        # The hashed port first; the rest follow as a fallback ordering
        # (they are only used if the first choice's VCs are all owned).
        return [k + (chosen + i) % k for i in range(k)]


@factory.register(RoutingAlgorithm, "clos_adaptive")
class ClosAdaptiveRouting(_ClosRoutingBase):
    """Least-congested uprouting driven by the (delayed) sensor."""

    SETTINGS = {}

    def _ordered_up_ports(self, packet) -> List[int]:
        k = self.half_radix
        # Rotate the tie-break origin per packet so equal sensed values
        # spread uniformly instead of herding onto the lowest port.
        rotation = packet.global_id % k
        status = self.router.sensor.status
        scored = []
        for i in range(k):
            port = k + (rotation + i) % k
            # The sensor's configured granularity already aggregates VCs
            # for port-level accounting; query VC 0 as the representative.
            # i breaks ties: a stable sort by congestion.
            scored.append((status(port, 0), i, port))
        scored.sort()
        return [port for _congestion, _i, port in scored]
