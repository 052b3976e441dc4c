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


@factory.register(RoutingAlgorithm, "alloc_trail_routing")
class AllocTrailRouting(TorusDimensionOrderRouting):
    """H001: stores a fresh list on ``self`` per route() call, one
    helper deep."""

    topology = "torus"

    def route(self, packet, input_port: int, input_vc: int):
        candidates = super().route(packet, input_port, input_vc)
        self._note_trail(candidates)
        return candidates

    def _note_trail(self, candidates) -> None:
        self._trail = [candidate.port for candidate in candidates]


@factory.register(RoutingAlgorithm, "cold_setup_routing")
class ColdSetupRouting(TorusDimensionOrderRouting):
    """Hazards only in construction-time code: must never be flagged.

    ``_build_bias``'s allocation would trip H001 in a hot method, but no
    per-event entry point reaches it -- the heat analysis must leave it
    out of the audit entirely.
    """

    topology = "torus"

    def _build_bias(self) -> None:
        self._bias_rows = [list(range(8)) for _ in range(8)]
