"""Parking-lot stress topology (paper §IV-B).

A chain of routers, one terminal per router, with all traffic converging
on terminal 0.  Flows joining closer to the head of the chain win a
round-robin arbiter's bandwidth geometrically more often than flows
joining farther away -- the classic parking-lot unfairness that
age-based arbitration is known to fix [Abts & Weisser, SC'07].  SuperSim
ships this topology specifically to stress-test arbitration features.

Settings:
    ``length`` -- number of routers in the chain (>= 2).
    ``concentration`` -- terminals per router.

Port layout: terminal ports ``0 .. c-1``, port ``c`` toward router
``i-1`` (down-chain, toward terminal 0), port ``c+1`` toward ``i+1``.
"""

from __future__ import annotations

from repro import factory
from repro.config.spec import KeySpec
from repro.net.network import Network
from repro.topology.util import CONCENTRATION


@factory.register(Network, "parking_lot")
class ParkingLotNetwork(Network):
    """A bidirectional chain of routers."""

    SETTINGS = {
        "length": KeySpec("uint", minimum=2),
        "concentration": CONCENTRATION,
    }

    def _build(self) -> None:
        model = type(self)
        self.length = self.settings.read(model, "length")
        self.concentration = self.settings.read(model, "concentration")
        num_ports = self.concentration + 2

        for rid in range(self.length):
            router = self._create_router(f"router{rid}", rid, num_ports)
            router.address = (rid,)

        for tid in range(self.length * self.concentration):
            interface = self._create_interface(tid)
            router = self.routers[tid // self.concentration]
            self._wire_terminal(interface, router, tid % self.concentration)

        for rid in range(self.length - 1):
            self._wire_routers(
                self.routers[rid],
                self.up_port,
                self.routers[rid + 1],
                self.down_port,
            )

    @property
    def down_port(self) -> int:
        """Port toward router i-1 (and ultimately terminal 0)."""
        return self.concentration

    @property
    def up_port(self) -> int:
        """Port toward router i+1 (the tail of the chain)."""
        return self.concentration + 1

    def terminal_router(self, terminal_id: int) -> int:
        return terminal_id // self.concentration

    def terminal_port(self, terminal_id: int) -> int:
        return terminal_id % self.concentration

    def minimal_hops(self, src_terminal: int, dst_terminal: int) -> int:
        return abs(
            self.terminal_router(src_terminal) - self.terminal_router(dst_terminal)
        )
