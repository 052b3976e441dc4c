"""Credit-based flow control primitives.

Credits are the reverse flow matching every forward flit flow: when a
downstream buffer frees a flit slot it returns one credit to the
upstream sender, which may only transmit while it holds credits.  The
paper's error-detection framework (§IV-D) guarantees that "buffers never
silently overrun and credits never go negative";
:meth:`~repro.net.device.PortedDevice.take_credit` and ``give_credit``
enforce both invariants, raising :class:`CreditError` immediately.
"""

from __future__ import annotations

from typing import List


class Credit:
    """A credit message: one freed buffer slot on a virtual channel.

    A credit carries only its VC and nothing ever mutates one, so the
    hot path uses the per-VC singletons handed out by :meth:`of`
    instead of allocating a fresh object per returned credit (tens of
    thousands per run).  Direct construction stays supported for tests
    and user models; identity is never load-bearing.
    """

    __slots__ = ("vc",)

    #: per-VC interned singletons, grown on demand (index == vc).
    _interned: List["Credit"] = []

    def __init__(self, vc: int):
        if vc < 0:
            raise ValueError(f"credit VC must be non-negative, got {vc}")
        self.vc = vc

    @classmethod
    def of(cls, vc: int) -> "Credit":
        """The interned credit singleton for ``vc``."""
        interned = cls._interned
        if vc < len(interned):
            return interned[vc]
        while len(interned) <= vc:
            interned.append(cls(len(interned)))
        return interned[vc]

    def __repr__(self):
        return f"Credit(vc={self.vc})"


class CreditError(RuntimeError):
    """Raised when credit accounting would go negative or overflow."""
