"""A torus routing algorithm that mutates a dict in ``routing_state``.

``routing_state`` is one immutable value an engine replaces; the lint
dependency trace copies packets, shares that value between the copies
and keys its visited set on it.  This engine keeps a scratch dict there
and mutates it in place, so ``sslint`` must name the engine in a G003
finding instead of failing with a bare ``TypeError``.
"""

from __future__ import annotations

from repro import factory
from repro.routing.base import RoutingAlgorithm

from .naive_routing import NaiveTorusMinimalRouting


@factory.register(RoutingAlgorithm, "scratch_dict_torus")
class ScratchDictTorusRouting(NaiveTorusMinimalRouting):
    """Counts routers seen in a dict it mutates in ``routing_state``."""

    def route(self, packet, input_port: int, input_vc: int):
        if packet.routing_state is None:
            packet.routing_state = {}
        seen = packet.routing_state
        seen["routers"] = seen.get("routers", 0) + 1
        return super().route(packet, input_port, input_vc)
