#!/usr/bin/env python
"""Extending the simulator with your own component models (paper §III-D).

SuperSim's #1 goal is letting architects drop in new models with zero
changes to the existing code base.  This example defines, in ordinary
user code:

* a custom traffic pattern (``hotspot``: a fraction of traffic targets
  a small set of hot terminals), and
* a custom routing algorithm for the torus (``torus_random_direction``:
  dimension order, but breaking direction ties randomly).

Both register with the object factory at import time and are then
selected purely by name from the JSON configuration -- the simulator
core is untouched.  The traffic pattern declares its settings, so
``sslint --import custom_model`` checks its block like a packaged
one's; the routing algorithm declares none, so its block stays open.

Run:  python examples/custom_model.py
"""

from typing import List

from repro import Settings, Simulation, factory
from repro.config.spec import KeySpec
from repro.routing.base import Candidate, RoutingAlgorithm
from repro.routing.torus import TorusDimensionOrderRouting
from repro.topology.util import ring_distance
from repro.workload.traffic import TrafficPattern


# --- a user-defined traffic pattern -----------------------------------------

@factory.register(TrafficPattern, "hotspot")
class HotspotTraffic(TrafficPattern):
    """``fraction`` of traffic targets the first ``num_hot`` terminals;
    the rest is uniform random."""

    # Declared once: construction reads through it, and sslint checks a
    # config against it (a misspelled key is reported, a negative
    # fraction refused).
    SETTINGS = {
        "fraction": KeySpec("float", 0.2, minimum=0.0),
        "num_hot": KeySpec("uint", 1, minimum=1),
    }

    def __init__(self, settings, num_terminals, network, rng):
        super().__init__(settings, num_terminals, network, rng)
        self.fraction = settings.read(type(self), "fraction")
        self.num_hot = settings.read(type(self), "num_hot")

    def destination(self, source):
        if self.rng.random() < self.fraction:
            return int(self.rng.integers(self.num_hot))
        dst = int(self.rng.integers(self.num_terminals - 1))
        return dst if dst < source else dst + 1


# --- a user-defined routing algorithm ----------------------------------------

@factory.register(RoutingAlgorithm, "torus_random_direction")
class TorusRandomDirectionRouting(TorusDimensionOrderRouting):
    """DOR that breaks half-way direction ties randomly instead of
    always going positive (spreads load on even-radix rings)."""

    # Compatibility is declared the way every packaged algorithm does;
    # a subclass inherits it, so this line restates the parent's.
    topology = "torus"

    def __init__(self, network, router, settings):
        super().__init__(network, router, settings)
        self._rng = network.random.generator(f"user_routing.{router.full_name}")

    def route(self, packet, input_port, input_vc) -> List[Candidate]:
        dst_router = self.network.terminal_router(packet.destination)
        if dst_router != self.router.router_id:
            dst_coords = self.network.router_coords(dst_router)
            dim = self._first_differing_dimension(dst_coords)
            width = self.widths[dim]
            hops, _direction = ring_distance(
                self.coords[dim], dst_coords[dim], width
            )
            if hops * 2 == width and self._rng.random() < 0.5:
                # Exactly half way around: flip the tie to negative by
                # rewriting the packet's dateline start bookkeeping.
                port = self.network.port_for(dim, -1)
                vc_class = self._dateline_class(packet, dim, -1)
                vcs = [vc for vc in range(self.router.num_vcs)
                       if vc % 2 == vc_class]
                return [(port, vc) for vc in vcs]
        return super().route(packet, input_port, input_vc)


CONFIG = {
    "simulator": {"seed": 11},
    "network": {
        "topology": "torus",
        "dimension_widths": [4, 4],
        "concentration": 1,
        "num_vcs": 2,
        "channel_latency": 3,
        "router": {"architecture": "input_queued",
                   "input_queue_depth": 16, "core_latency": 2},
        "interface": {"max_packet_size": 4},
        # Select the user models purely by name:
        "routing": {"algorithm": "torus_random_direction"},
    },
    "workload": {
        "applications": [{
            "type": "blast",
            "injection_rate": 0.25,
            "warmup_duration": 500,
            "generate_duration": 3000,
            "traffic": {"type": "hotspot", "fraction": 0.3, "num_hot": 2},
            "message_size": {"type": "constant", "size": 2},
        }],
    },
}


def main():
    results = Simulation(Settings.from_dict(CONFIG)).run(max_time=100_000)
    print("drained:", results.drained)
    latency = results.latency()
    print(f"mean latency {latency.mean():.1f} ns over {len(latency)} messages")

    # Show the hotspot doing its job: terminals 0/1 receive far more.
    received = {}
    for record in results.records():
        received[record.destination] = received.get(record.destination, 0) + 1
    hot = sum(received.get(t, 0) for t in (0, 1))
    print(f"traffic to hot terminals 0-1: {hot}/{sum(received.values())} "
          f"({hot / sum(received.values()):.0%})")


if __name__ == "__main__":
    main()
