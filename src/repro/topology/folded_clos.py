"""Folded-Clos / fat-tree topology [Clos 1953], as a k-ary n-tree.

``num_levels`` levels of routers (level 0 at the leaves), each level
containing ``half_radix ** (num_levels - 1)`` routers.  Every router has
``half_radix`` down ports; all levels except the top also have
``half_radix`` up ports.  Terminals number ``half_radix ** num_levels``.
The paper's case study A uses the 3-level, 4096-terminal instance
(half_radix 16, i.e. radix-32 routers).

Wiring follows the standard k-ary n-tree rule.  Writing a router's
index in base-k digits ``w[num_levels-2] .. w[0]``:

* level-``l`` router ``w``, up port ``u``  <->  level-``l+1`` router
  ``w`` with digit ``l`` replaced by ``u``, down port ``w[l]``.
* terminal ``t`` attaches to the level-0 router ``t // k`` at down
  port ``t % k``.

A level-``l`` router is an ancestor of terminal ``t`` iff its digits at
positions ``l .. num_levels-2`` equal ``t``'s base-k digits at positions
``l+1 .. num_levels-1``.  Minimal routing ascends (any up port -- this
freedom is what adaptive uprouting exploits) until an ancestor of the
destination, then descends deterministically by digit.

Port layout: down ports ``0 .. k-1``, up ports ``k .. 2k-1``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro import factory
from repro.config.spec import KeySpec
from repro.net.network import Network


@factory.register(Network, "folded_clos")
class FoldedClosNetwork(Network):
    """k-ary n-tree folded Clos."""

    SETTINGS = {
        "half_radix": KeySpec("uint", minimum=2),
        "num_levels": KeySpec("uint", minimum=2),
    }

    def _build(self) -> None:
        model = type(self)
        self.half_radix = self.settings.read(model, "half_radix")
        self.num_levels = self.settings.read(model, "num_levels")
        k, n = self.half_radix, self.num_levels
        self.routers_per_level = k ** (n - 1)
        num_terminals = k**n

        # routers[level][index]
        self._grid: List[List] = []
        rid = 0
        for level in range(n):
            is_top = level == n - 1
            num_ports = k if is_top else 2 * k
            row = []
            for index in range(self.routers_per_level):
                router = self._create_router(
                    f"router_l{level}_{index}", rid, num_ports
                )
                router.address = (level, index)
                row.append(router)
                rid += 1
            self._grid.append(row)

        for tid in range(num_terminals):
            interface = self._create_interface(tid)
            self._wire_terminal(interface, self._grid[0][tid // k], tid % k)

        # Up links per the k-ary n-tree rule.
        for level in range(n - 1):
            for index in range(self.routers_per_level):
                digits = self.router_digits(index)
                for up_port in range(k):
                    upper_digits = list(digits)
                    upper_digits[level] = up_port
                    upper_index = self.digits_to_index(upper_digits)
                    self._wire_routers(
                        self._grid[level][index],
                        k + up_port,
                        self._grid[level + 1][upper_index],
                        digits[level],
                    )

    # -- digit helpers ------------------------------------------------------------

    def router_digits(self, index: int) -> Tuple[int, ...]:
        """Base-k digits of a router index, digit 0 first."""
        k, n = self.half_radix, self.num_levels
        digits = []
        for _ in range(n - 1):
            digits.append(index % k)
            index //= k
        return tuple(digits)

    def digits_to_index(self, digits) -> int:
        k = self.half_radix
        index = 0
        for position in reversed(range(len(digits))):
            index = index * k + digits[position]
        return index

    def terminal_digits(self, terminal_id: int) -> Tuple[int, ...]:
        """Base-k digits of a terminal id, digit 0 first (n digits)."""
        k, n = self.half_radix, self.num_levels
        digits = []
        for _ in range(n):
            digits.append(terminal_id % k)
            terminal_id //= k
        return tuple(digits)

    def router_at(self, level: int, index: int):
        return self._grid[level][index]

    def is_ancestor(self, level: int, index: int, terminal_id: int) -> bool:
        """Is router (level, index) an ancestor of ``terminal_id``?"""
        router_digits = self.router_digits(index)
        terminal_digits = self.terminal_digits(terminal_id)
        for position in range(level, self.num_levels - 1):
            if router_digits[position] != terminal_digits[position + 1]:
                return False
        return True

    def ancestor_level(self, src_terminal: int, dst_terminal: int) -> int:
        """Lowest level of a common ancestor of two terminals."""
        src = self.terminal_digits(src_terminal)
        dst = self.terminal_digits(dst_terminal)
        for level in reversed(range(self.num_levels)):
            if src[level] != dst[level]:
                return level
        return 0

    def minimal_hops(self, src_terminal: int, dst_terminal: int) -> int:
        """Router-to-router channel traversals on a minimal path."""
        level = self.ancestor_level(src_terminal, dst_terminal)
        return 2 * level  # `level` hops up plus `level` hops down
