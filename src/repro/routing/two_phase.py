"""Two-phase routing: one Valiant / UGAL core for HyperX and dragonfly.

Valiant load balancing routes a packet minimally to a random
intermediate, then minimally to its destination.  UGAL [Singh] makes
the detour a per-packet choice at the source router: it compares the
sensed congestion of the minimal first hop against the Valiant first
hop, each weighted by its path length, and commits to whichever wins::

    q_min * h_min <= q_val * h_val + bias   ->  go minimal

The congestion values come from the router's congestion sensor, so the
credit accounting style and the sensing latency shape UGAL's decisions
-- which is what case study B (§VI-B) studies.

A topology supplies only what differs: what an intermediate is (a
router on HyperX, a group on a dragonfly) and its draw, the next hop
toward it and toward a router, the hop estimates, and the VC that UGAL
queries.

VC discipline: the VC index equals the number of router-to-router hops
already taken, clamped to the top VC, so every hop moves to a strictly
higher VC until the clamp.  ``packet.hop_count`` is that number when
the head is routed: routers bump it as the head leaves them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.routing.base import Candidate, RoutingAlgorithm


class HopVcRouting(RoutingAlgorithm):
    """Terminal ports first, ejection on any VC and the VC = hops-taken
    discipline: what HyperX and dragonfly routing share."""

    def __init__(self, network, router, settings):
        super().__init__(network, router, settings)
        self.concentration = network.concentration

    def _ejection(self, packet) -> List[Candidate]:
        port = self.network.terminal_port(packet.destination)
        return [(port, vc) for vc in range(self.router.num_vcs)]

    def _hop_vc(self, packet) -> int:
        return min(packet.hop_count, self.router.num_vcs - 1)

    def _minimal_port(self, dst_router: int) -> Optional[int]:
        """The next minimal hop toward a router, or None if this is it."""
        raise NotImplementedError


class TwoPhaseRouting(HopVcRouting):
    """Valiant; UGAL when a subclass sets ``reads_congestion``.

    A packet injected here is committed once: phase 0 carries it to an
    intermediate, phase 1 (or a minimal choice) to its destination.
    The phase is the packet's ``routing_state``; ``None`` means
    undecided.

    Settings (UGAL only):
        ``ugal_bias`` -- additive bias favoring the minimal path
            (default 0.0, in sensed-congestion units).
    """

    #: Valiant never reads the congestion sensor; UGAL does, so a
    #: subclass that sets this to True weighs the detour at the source.
    reads_congestion = False

    #: Whether UGAL draws an intermediate for a packet addressed to this
    #: very router.  It goes minimal either way, but the draw advances
    #: the input port's stream and so every later decision there.
    _ugal_draws_for_local = True

    def __init__(self, network, router, settings):
        super().__init__(network, router, settings)
        # Each terminal input port draws from its own stream.
        self._rngs = [
            network.random.generator(f"routing.{router.full_name}.in{port}")
            for port in range(self.concentration)
        ]
        if self.reads_congestion:
            self.bias = settings.get_float("ugal_bias", 0.0)
        # Per wired output port, its one-candidate response on each VC,
        # validated once: a hop allocates no response.
        self._hop_responses = {
            port: [self.validated(((port, vc),)) for vc in range(router.num_vcs)]
            for port in range(router.num_ports)
            if router.port_is_wired(port)
        }

    # -- what a topology supplies ------------------------------------------------

    def _draw_intermediate(self, rng) -> int:
        """A uniformly random intermediate, drawn from ``rng``."""
        raise NotImplementedError

    def _region(self, router_id: int) -> int:
        """The intermediate a router lies in (itself, or its group)."""
        raise NotImplementedError

    def _toward_intermediate(self, intermediate: int) -> Optional[int]:
        """The next hop toward an intermediate, or None once inside it."""
        raise NotImplementedError

    def _hop_estimates(self, dst_router: int, intermediate: int) -> Tuple[int, int]:
        """(minimal, Valiant) path lengths UGAL weighs congestion by."""
        raise NotImplementedError

    def _ugal_vc(self, packet) -> int:
        """The VC whose sensed congestion UGAL compares."""
        raise NotImplementedError

    # -- the core -----------------------------------------------------------------

    def route(self, packet, input_port: int, input_vc: int) -> Sequence[Candidate]:
        if input_port < self.concentration and packet.routing_state is None:
            self._decide(packet, self._rngs[input_port])
        if packet.routing_state == 0:
            port = self._toward_intermediate(packet.intermediate)
            if port is not None:
                return self._hop_responses[port][self._hop_vc(packet)]
            packet.routing_state = 1  # reached the intermediate
        port = self._minimal_port(self.network.terminal_router(packet.destination))
        if port is None:
            return self._ejection(packet)
        return self._hop_responses[port][self._hop_vc(packet)]

    def _decide(self, packet, rng) -> None:
        """Commit a packet at its source: to a detour, or minimal,
        drawing from its terminal input port's stream ``rng``."""
        packet.routing_state = 1  # minimal unless a detour is committed below
        dst_router = self.network.terminal_router(packet.destination)
        ugal = self.reads_congestion
        if ugal:
            min_port = self._minimal_port(dst_router)
            if min_port is None and not self._ugal_draws_for_local:
                return
        intermediate = self._draw_intermediate(rng)
        if intermediate in (self._region(self.router.router_id),
                            self._region(dst_router)):
            return  # a detour through either end is no detour
        if ugal:
            if min_port is None:
                return
            min_hops, val_hops = self._hop_estimates(dst_router, intermediate)
            vc = self._ugal_vc(packet)
            q_min = self.congestion(min_port, vc)
            q_val = self.congestion(self._toward_intermediate(intermediate), vc)
            if q_min * min_hops <= q_val * val_hops + self.bias:
                return
        packet.routing_state = 0
        packet.intermediate = intermediate
        packet.non_minimal = True
