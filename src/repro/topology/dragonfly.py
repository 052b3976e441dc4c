"""Dragonfly topology [Kim et al., ISCA'08].

Groups of ``group_size`` routers, fully connected locally; each router
has ``global_links`` ports to other groups, and the groups themselves
form a clique over the global channels.  With the balanced arrangement
``num_groups = group_size * global_links + 1`` every ordered group pair
is joined by exactly one global channel (the "absolute" arrangement).

Settings:
    ``group_size``   -- routers per group (a).
    ``global_links`` -- global channels per router (h).
    ``concentration`` -- terminals per router (p).
    ``num_groups``   -- optional; defaults to a*h + 1 (must be <= that).
    ``global_latency`` -- optional latency for global channels
        (defaults to ``channel_latency``; real systems have much longer
        global cables).

Port layout on every router::

    0 .. p-1                       terminal ports
    p .. p+a-2                     local ports (to the other a-1 routers
                                   in the group, in coordinate order
                                   skipping self)
    p+a-1 .. p+a-1+h-1             global ports
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro import factory
from repro.config.spec import KeySpec
from repro.net.network import Network, wire
from repro.topology.util import CONCENTRATION


@factory.register(Network, "dragonfly")
class DragonflyNetwork(Network):
    """Balanced dragonfly with single global channels between groups."""

    SETTINGS = {
        "group_size": KeySpec("uint", minimum=2),
        "global_links": KeySpec("uint", minimum=1),
        "concentration": CONCENTRATION,
        "num_groups": KeySpec("uint", None, minimum=2),
        "global_latency": KeySpec("uint", None, minimum=1),
    }

    def _build(self) -> None:
        model = type(self)
        self.group_size = self.settings.read(model, "group_size")
        self.global_links = self.settings.read(model, "global_links")
        self.concentration = self.settings.read(model, "concentration")
        max_groups = self.group_size * self.global_links + 1
        self.num_groups = self.settings.read(model, "num_groups") or max_groups
        self.global_latency = (self.settings.read(model, "global_latency")
                               or self.channel_latency)
        if self.num_groups > max_groups:
            raise ValueError(
                f"num_groups must be in [2, {max_groups}], got {self.num_groups}"
            )

        a, h, p = self.group_size, self.global_links, self.concentration
        num_ports = p + (a - 1) + h

        for group in range(self.num_groups):
            for local in range(a):
                rid = group * a + local
                router = self._create_router(f"router{rid}", rid, num_ports)
                router.address = (group, local)

        for tid in range(self.num_groups * a * p):
            interface = self._create_interface(tid)
            router = self.routers[tid // p]
            self._wire_terminal(interface, router, tid % p)

        # Local cliques.
        for group in range(self.num_groups):
            for i in range(a):
                for j in range(i + 1, a):
                    self._wire_routers(
                        self.routers[group * a + i],
                        self.local_port(i, j),
                        self.routers[group * a + j],
                        self.local_port(j, i),
                    )

        # Global channels, absolute arrangement: group G's link index
        # ell in [0, a*h) reaches group (ell if ell < G else ell + 1);
        # links beyond num_groups-1 targets are left unwired.
        for group in range(self.num_groups):
            for ell in range(a * h):
                target = ell if ell < group else ell + 1
                if target >= self.num_groups or target <= group:
                    continue  # unwired (small config) or wired by peer
                # This link on the target side has index `group` (since
                # group < target).
                src_router = self.routers[group * a + ell // h]
                dst_router = self.routers[target * a + (group // h)]
                wire(
                    self,
                    src_router,
                    self.global_port(ell % h),
                    dst_router,
                    self.global_port(group % h),
                    self.global_latency,
                    self.channel_period,
                )

    # -- port helpers ---------------------------------------------------------------

    def local_port(self, own_local: int, target_local: int) -> int:
        """Port on router ``own_local`` reaching ``target_local`` (same group)."""
        if target_local == own_local:
            raise ValueError("no local self link")
        adjusted = target_local if target_local < own_local else target_local - 1
        return self.concentration + adjusted

    def global_port(self, link: int) -> int:
        return self.concentration + (self.group_size - 1) + link

    def global_route(self, src_group: int, dst_group: int) -> Tuple[int, int]:
        """(local router index, global port) exiting ``src_group`` toward
        ``dst_group`` over the single direct global channel."""
        if src_group == dst_group:
            raise ValueError("groups are equal; no global hop needed")
        ell = dst_group if dst_group < src_group else dst_group - 1
        return ell // self.global_links, self.global_port(ell % self.global_links)

    def terminal_router(self, terminal_id: int) -> int:
        return terminal_id // self.concentration

    def terminal_port(self, terminal_id: int) -> int:
        return terminal_id % self.concentration

    def router_group(self, router_id: int) -> int:
        return router_id // self.group_size

    def minimal_hops(self, src_terminal: int, dst_terminal: int) -> int:
        src_router = self.terminal_router(src_terminal)
        dst_router = self.terminal_router(dst_terminal)
        if src_router == dst_router:
            return 0
        src_group = self.router_group(src_router)
        dst_group = self.router_group(dst_router)
        if src_group == dst_group:
            return 1
        # Up to: local hop to the gateway, global hop, local hop.
        exit_local, _port = self.global_route(src_group, dst_group)
        entry_local, _port = self.global_route(dst_group, src_group)
        hops = 1  # the global channel
        if src_router % self.group_size != exit_local:
            hops += 1
        if dst_router % self.group_size != entry_local:
            hops += 1
        return hops
