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
router on HyperX, a group on a dragonfly) and how many there are, the
next hop toward it and toward a router, the hop estimates, and the VC
that UGAL queries.

VC discipline: the VC index equals the number of router-to-router hops
already taken, clamped to the top VC, so every hop moves to a strictly
higher VC until the clamp.  ``packet.hop_count`` is that number when
the head is routed: routers bump it as the head leaves them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.config.spec import KeySpec
from repro.routing.base import Candidate, RoutingAlgorithm

#: The UGAL variants' settings: ``ugal_bias``, an additive bias
#: favoring the minimal path, in sensed-congestion units.
UGAL_SETTINGS = {"ugal_bias": KeySpec("float", 0.0)}

#: The ``routing_state`` of a packet routed minimally to its
#: destination: it chose no detour, or has reached its intermediate.
#: Any other committed value is the intermediate region it heads for.
MINIMAL = -1


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

    A packet injected here is committed once, and its ``routing_state``
    is the whole commitment: ``None`` while undecided, the intermediate
    region it heads for, or :data:`MINIMAL`.

    Settings (UGAL only): :data:`UGAL_SETTINGS`.
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
            self.bias = settings.read(UGAL_SETTINGS, "ugal_bias")
        # Per wired output port, its one-candidate response on each VC,
        # validated once: a hop allocates no response.
        self._hop_responses = {
            port: [self.validated(((port, vc),)) for vc in range(router.num_vcs)]
            for port in range(router.num_ports)
            if router.port_is_wired(port)
        }

    # -- what a topology supplies ------------------------------------------------

    def _region_count(self) -> int:
        """How many intermediates there are; a draw picks one uniformly."""
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
        state = packet.routing_state
        if state is None and input_port < self.concentration:
            state = self._decide(packet, self._rngs[input_port])
            self.commit(packet, state)
        if state != MINIMAL and state is not None:
            port = self._toward_intermediate(state)
            if port is not None:
                return self._hop_responses[port][self._hop_vc(packet)]
            packet.routing_state = MINIMAL  # reached the intermediate
        port = self._minimal_port(self.network.terminal_router(packet.destination))
        if port is None:
            return self._ejection(packet)
        return self._hop_responses[port][self._hop_vc(packet)]

    def source_choices(self, packet) -> Tuple[int, ...]:
        dst_router = self.network.terminal_router(packet.destination)
        if self.reads_congestion and self._minimal_port(dst_router) is None:
            return (MINIMAL,)
        ends = (self._region(self.router.router_id), self._region(dst_router))
        return (MINIMAL,) + tuple(
            region for region in range(self._region_count()) if region not in ends
        )

    def commit(self, packet, state: int) -> None:
        packet.routing_state = state
        packet.non_minimal = state != MINIMAL

    def _decide(self, packet, rng) -> int:
        """A packet's commitment at its source, one of its
        :meth:`source_choices`, drawn from its input port's ``rng``."""
        dst_router = self.network.terminal_router(packet.destination)
        ugal = self.reads_congestion
        if ugal:
            min_port = self._minimal_port(dst_router)
            if min_port is None and not self._ugal_draws_for_local:
                return MINIMAL
        intermediate = int(rng.integers(self._region_count()))
        if intermediate in (self._region(self.router.router_id),
                            self._region(dst_router)):
            return MINIMAL  # a detour through either end is no detour
        if ugal:
            if min_port is None:
                return MINIMAL
            min_hops, val_hops = self._hop_estimates(dst_router, intermediate)
            vc = self._ugal_vc(packet)
            q_min = self.congestion(min_port, vc)
            q_val = self.congestion(self._toward_intermediate(intermediate), vc)
            if q_min * min_hops <= q_val * val_hops + self.bias:
                return MINIMAL
        return intermediate
