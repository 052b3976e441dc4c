"""Torus (k-ary n-cube) topology [Dally & Seitz, Torus Routing Chip].

The network is a grid of routers with wrap-around links in every
dimension.  Each router concentrates ``concentration`` terminals and has
two ports per dimension (one per direction).

Settings:
    ``dimension_widths`` -- list of ints, e.g. ``[8, 8, 8, 8]`` for the
        paper's 4-D torus (case study C).
    ``concentration`` -- terminals per router.

Port layout on every router::

    0 .. c-1                    terminal ports
    c + 2d                      dimension d, positive (+) direction
    c + 2d + 1                  dimension d, negative (-) direction

Router addresses are coordinate tuples; terminal ``t`` attaches to the
router with flat index ``t // concentration`` at port ``t % concentration``.
"""

from __future__ import annotations

from repro import factory
from repro.net.network import Network
from repro.topology.util import (
    CONCENTRATION,
    DIMENSION_WIDTHS,
    coords_to_index,
    index_to_coords,
    product,
    ring_distance,
)


@factory.register(Network, "torus")
class TorusNetwork(Network):
    """k-ary n-cube with wrap-around links."""

    SETTINGS = {
        "dimension_widths": DIMENSION_WIDTHS,
        "concentration": CONCENTRATION,
    }

    def _build(self) -> None:
        model = type(self)
        self.widths = self.settings.read(model, "dimension_widths")
        if not self.widths:
            raise ValueError("dimension_widths must not be empty")
        self.concentration = self.settings.read(model, "concentration")
        self.num_dimensions = len(self.widths)
        num_routers = product(self.widths)
        num_ports = self.concentration + 2 * self.num_dimensions

        for rid in range(num_routers):
            router = self._create_router(f"router{rid}", rid, num_ports)
            router.address = index_to_coords(rid, self.widths)

        # Terminals.
        for tid in range(num_routers * self.concentration):
            interface = self._create_interface(tid)
            router = self.routers[tid // self.concentration]
            self._wire_terminal(interface, router, tid % self.concentration)

        # Rings: wire each router's + port to its +1 neighbor's - port.
        for rid in range(num_routers):
            coords = list(self.routers[rid].address)
            for dim, width in enumerate(self.widths):
                neighbor_coords = list(coords)
                neighbor_coords[dim] = (coords[dim] + 1) % width
                nid = coords_to_index(neighbor_coords, self.widths)
                self._wire_routers(
                    self.routers[rid],
                    self.port_for(dim, +1),
                    self.routers[nid],
                    self.port_for(dim, -1),
                )

    # -- coordinate helpers ------------------------------------------------------

    def port_for(self, dim: int, direction: int) -> int:
        """The router port moving in ``direction`` along ``dim``."""
        if direction not in (+1, -1):
            raise ValueError(f"direction must be +1 or -1, got {direction}")
        return self.concentration + 2 * dim + (0 if direction == +1 else 1)

    def terminal_router(self, terminal_id: int) -> int:
        return terminal_id // self.concentration

    def terminal_port(self, terminal_id: int) -> int:
        return terminal_id % self.concentration

    def router_coords(self, router_id: int):
        return index_to_coords(router_id, self.widths)

    def minimal_hops(self, src_terminal: int, dst_terminal: int) -> int:
        src = index_to_coords(self.terminal_router(src_terminal), self.widths)
        dst = index_to_coords(self.terminal_router(dst_terminal), self.widths)
        return sum(
            ring_distance(s, d, w)[0] for s, d, w in zip(src, dst, self.widths)
        )
