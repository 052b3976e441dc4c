"""Mixed-radix coordinate arithmetic shared by the topologies."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.config.spec import KeySpec

#: Terminals per router, for the topologies that concentrate them.
CONCENTRATION = KeySpec("uint", 1, minimum=1)

#: Routers per dimension of a torus or HyperX.
DIMENSION_WIDTHS = KeySpec("int_list", minimum=2)


def index_to_coords(index: int, widths: Sequence[int]) -> Tuple[int, ...]:
    """Decompose a flat index into mixed-radix coordinates.

    Dimension 0 is the fastest varying digit:
    ``index = c[0] + c[1]*w[0] + c[2]*w[0]*w[1] + ...``.
    """
    coords: List[int] = []
    for width in widths:
        coords.append(index % width)
        index //= width
    if index != 0:
        raise ValueError("index out of range for the given widths")
    return tuple(coords)


def coords_to_index(coords: Sequence[int], widths: Sequence[int]) -> int:
    """Inverse of :func:`index_to_coords`."""
    if len(coords) != len(widths):
        raise ValueError("coords/widths length mismatch")
    index = 0
    stride = 1
    for coord, width in zip(coords, widths):
        if not 0 <= coord < width:
            raise ValueError(f"coordinate {coord} out of range [0, {width})")
        index += coord * stride
        stride *= width
    return index


def product(widths: Sequence[int]) -> int:
    result = 1
    for width in widths:
        result *= width
    return result


def ring_distance(a: int, b: int, k: int) -> Tuple[int, int]:
    """(hops, direction) for the shortest way around a ring of size k.

    direction is +1 or -1; ties (exactly half way) resolve to +1.
    """
    forward = (b - a) % k
    backward = (a - b) % k
    if forward <= backward:
        return forward, +1
    return backward, -1
