"""Deliberately slow model classes, one per H-rule.

Mutation fixtures for the hot-path perf analyzer
(:mod:`repro.lint.perf_rules`): each class commits exactly one
category of hot-path sin inside a method the heat analysis proves hot
(``route``/``respond`` are per-event entry points for routing models),
so the tests can assert rule-by-rule that every H-rule actually fires
on the hazard it documents -- with the evidence chain naming the entry
point that makes the method hot.

The classes are registered with the factory at import time but never
instantiated; they only need to be statically plausible.  A final
fixture keeps its hazards in construction-time helpers no entry point
reaches, proving cold code is never flagged.
"""

from __future__ import annotations

from repro import factory
from repro.routing.base import RoutingAlgorithm
from repro.routing.torus import TorusDimensionOrderRouting

#: module-level tally the H006 fixture writes through ``global``.
_ROUTE_TALLY = 0


class HopNote:
    """A note class without ``__slots__`` -- the H005 bait."""

    def __init__(self, port: int, vc: int):
        self.port = port
        self.vc = vc


@factory.register(RoutingAlgorithm, "alloc_trail_routing")
class AllocTrailRouting(TorusDimensionOrderRouting):
    """H001: stores a fresh list on ``self`` per route() call."""

    topology = "torus"

    def route(self, packet, input_vc: int):
        candidates = super().route(packet, input_vc)
        self._trail = [candidate.port for candidate in candidates]
        return candidates


@factory.register(RoutingAlgorithm, "closure_sort_routing")
class ClosureSortRouting(TorusDimensionOrderRouting):
    """H002: allocates a lambda per route() call."""

    topology = "torus"

    def route(self, packet, input_vc: int):
        candidates = list(super().route(packet, input_vc))
        candidates.sort(key=lambda candidate: candidate.vc)
        return candidates


@factory.register(RoutingAlgorithm, "chain_happy_routing")
class ChainHappyRouting(TorusDimensionOrderRouting):
    """H003: reloads ``self.router.num_vcs`` on every loop iteration."""

    topology = "torus"

    def route(self, packet, input_vc: int):
        candidates = super().route(packet, input_vc)
        usable = 0
        for candidate in candidates:
            if candidate.vc < self.router.num_vcs:
                usable += 1
            elif candidate.port < self.router.num_vcs:
                usable -= 1
        return candidates


@factory.register(RoutingAlgorithm, "chatty_trace_routing")
class ChattyTraceRouting(TorusDimensionOrderRouting):
    """H004: builds an f-string per event, two helpers deep."""

    topology = "torus"

    def route(self, packet, input_vc: int):
        candidates = super().route(packet, input_vc)
        self._note_hop(packet)
        return candidates

    def _note_hop(self, packet) -> None:
        self.last_note = f"hop {packet.source}->{packet.destination}"


@factory.register(RoutingAlgorithm, "noteful_routing")
class NotefulRouting(TorusDimensionOrderRouting):
    """H005: instantiates a dict-carrying class per route() call."""

    topology = "torus"

    def route(self, packet, input_vc: int):
        candidates = super().route(packet, input_vc)
        self._note = HopNote(candidates[0].port, candidates[0].vc)
        return candidates


@factory.register(RoutingAlgorithm, "flaky_probe_routing")
class FlakyProbeRouting(TorusDimensionOrderRouting):
    """H006: try/except inside a hot loop, ``global`` in respond()."""

    topology = "torus"

    def route(self, packet, input_vc: int):
        candidates = super().route(packet, input_vc)
        for candidate in candidates:
            try:
                candidate.port
            except AttributeError:
                pass
        return candidates

    def respond(self, packet, input_vc: int):
        global _ROUTE_TALLY
        _ROUTE_TALLY += 1
        return super().respond(packet, input_vc)


@factory.register(RoutingAlgorithm, "type_sniff_routing")
class TypeSniffRouting(TorusDimensionOrderRouting):
    """H007: isinstance() dispatch per route() call."""

    topology = "torus"

    def route(self, packet, input_vc: int):
        candidates = super().route(packet, input_vc)
        if isinstance(packet.message, dict):
            return candidates[::-1]
        return candidates


@factory.register(RoutingAlgorithm, "cold_setup_routing")
class ColdSetupRouting(TorusDimensionOrderRouting):
    """Hazards only in construction-time code: must never be flagged.

    ``_build_bias``'s allocations and f-strings would trip H001/H004 in
    a hot method, but no per-event entry point reaches it -- the heat
    analysis must leave it out of the audit entirely.
    """

    topology = "torus"

    def _build_bias(self) -> None:
        self._bias_rows = [list(range(8)) for _ in range(8)]
        self._bias_label = f"bias[{len(self._bias_rows)}]"
