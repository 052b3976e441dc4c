"""HyperX topology [Ahn et al., SC'09].

Routers form an n-dimensional lattice where every dimension is fully
connected (a clique): moving within a dimension takes exactly one hop.
HyperX generalizes the hypercube (all widths 2) and the flattened
butterfly [Kim et al., ISCA'07]; the 1-D instance with 32 routers and
concentration 32 is the paper's case study B network (Table I: 63-port
routers, 1024 terminals).

Settings:
    ``dimension_widths`` -- routers per dimension, e.g. ``[32]`` for the
        1-D flattened butterfly.
    ``concentration`` -- terminals per router.

Port layout on every router::

    0 .. c-1                                  terminal ports
    c + offset(d) + j'                        dimension d, link to the
                                              router with coordinate j in
                                              that dimension, where
                                              j' = j if j < own coordinate
                                              else j - 1

with ``offset(d) = sum(widths[e] - 1 for e < d)``.
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
)


@factory.register(Network, "hyperx")
class HyperXNetwork(Network):
    """n-dimensional HyperX / flattened butterfly."""

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
        num_ports = self.concentration + sum(w - 1 for w in self.widths)

        self._dim_offsets = []
        offset = 0
        for width in self.widths:
            self._dim_offsets.append(offset)
            offset += width - 1

        for rid in range(num_routers):
            router = self._create_router(f"router{rid}", rid, num_ports)
            router.address = index_to_coords(rid, self.widths)

        for tid in range(num_routers * self.concentration):
            interface = self._create_interface(tid)
            router = self.routers[tid // self.concentration]
            self._wire_terminal(interface, router, tid % self.concentration)

        # Cliques: wire each ordered pair once (lower coordinate initiates).
        for rid in range(num_routers):
            coords = self.routers[rid].address
            for dim, width in enumerate(self.widths):
                own = coords[dim]
                for other in range(own + 1, width):
                    neighbor_coords = list(coords)
                    neighbor_coords[dim] = other
                    nid = coords_to_index(neighbor_coords, self.widths)
                    self._wire_routers(
                        self.routers[rid],
                        self.port_for(dim, own, other),
                        self.routers[nid],
                        self.port_for(dim, other, own),
                    )

    # -- coordinate helpers ------------------------------------------------------

    def port_for(self, dim: int, own_coord: int, target_coord: int) -> int:
        """The port on a router at ``own_coord`` reaching ``target_coord``."""
        if target_coord == own_coord:
            raise ValueError("no self link in a HyperX dimension")
        adjusted = target_coord if target_coord < own_coord else target_coord - 1
        return self.concentration + self._dim_offsets[dim] + adjusted

    def terminal_router(self, terminal_id: int) -> int:
        return terminal_id // self.concentration

    def terminal_port(self, terminal_id: int) -> int:
        return terminal_id % self.concentration

    def router_coords(self, router_id: int):
        return index_to_coords(router_id, self.widths)

    def minimal_hops(self, src_terminal: int, dst_terminal: int) -> int:
        src = self.router_coords(self.terminal_router(src_terminal))
        dst = self.router_coords(self.terminal_router(dst_terminal))
        return sum(1 for s, d in zip(src, dst) if s != d)
