"""Crossbar scheduling and flow control techniques (paper §VI-C).

The crossbar scheduler decides, each core-clock cycle, which input VC
sends a flit to each output port.  Configuring different flow control
techniques is done by giving this component various settings -- exactly
the knob case study C turns.  The three techniques, after Dally &
Towles [11]:

* **flit_buffer (FB)** -- flit-by-flit scheduling.  Two packets
  contending for an output interleave their flits, each taking 50% of
  the bandwidth.  Fair, no locking.
* **packet_buffer (PB)** -- packet-by-packet scheduling.  A packet only
  wins arbitration when there is enough downstream space for the
  *entire* packet; once it wins, the grant is locked until the tail
  flit enters the crossbar, so a streaming packet never credit-stalls.
* **winner_take_all (WTA)** -- hybrid: flit-level credit checks (a
  packet may start without full-packet credits) but the grant locks to
  the winner.  If the streaming packet stalls -- no credit, or its next
  flit has not arrived -- the lock is released and other packets with
  available credits take over.

The scheduler is microarchitecture-agnostic: the owning router supplies
a ``credits_available(out_port, out_vc)`` callback, which is downstream
credits for the IQ router and output-queue credits for the IOQ router.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.net.flit import Flit
from repro.net.packet import Packet
from repro.router.arbiter import Arbiter, create_arbiter

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.settings import Settings

FLIT_BUFFER = "flit_buffer"
PACKET_BUFFER = "packet_buffer"
WINNER_TAKE_ALL = "winner_take_all"

_FLOW_CONTROL_MODES = (FLIT_BUFFER, PACKET_BUFFER, WINNER_TAKE_ALL)


class Bid:
    """One input VC's request to move its front flit through the crossbar."""

    __slots__ = ("in_port", "in_vc", "packet", "flit", "out_port", "out_vc")

    def __init__(
        self,
        in_port: int,
        in_vc: int,
        packet: Packet,
        flit: Flit,
        out_port: int,
        out_vc: int,
    ):
        self.in_port = in_port
        self.in_vc = in_vc
        self.packet = packet
        self.flit = flit
        self.out_port = out_port
        self.out_vc = out_vc

    @property
    def remaining_flits(self) -> int:
        """Flits of the packet not yet through the crossbar (incl. this one)."""
        return self.packet.num_flits - self.flit.index

    @property
    def is_tail(self) -> bool:
        return self.flit.tail

    def key(self) -> Tuple[int, int]:
        return (self.in_port, self.in_vc)

    def __repr__(self):
        return (
            f"Bid(in={self.in_port}.{self.in_vc} -> "
            f"out={self.out_port}.{self.out_vc}, {self.flit!r})"
        )


class CrossbarScheduler:
    """Per-output arbitration with configurable flow control locking.

    Settings:
        ``flow_control`` -- one of ``flit_buffer`` (default),
            ``packet_buffer``, ``winner_take_all``.
        ``arbiter`` -- sub-block for the per-output arbiter
            (``type`` defaults to ``round_robin``).
    """

    def __init__(
        self,
        num_ports: int,
        num_vcs: int,
        settings: "Settings",
        credits_available: Callable[[int, int], int],
        rng=None,
    ):
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self.flow_control = settings.get_str("flow_control", FLIT_BUFFER)
        if self.flow_control not in _FLOW_CONTROL_MODES:
            raise ValueError(
                f"unknown flow control {self.flow_control!r}; "
                f"expected one of {_FLOW_CONTROL_MODES}"
            )
        self.credits_available = credits_available
        arbiter_settings = settings.child("arbiter", default={})
        self._arbiters: List[Arbiter] = [
            create_arbiter(arbiter_settings, num_ports * num_vcs, rng)
            for _ in range(num_ports)
        ]
        # Lock table: out_port -> (in_port, in_vc) of the streaming owner.
        self._locks: Dict[int, Tuple[int, int]] = {}

    # -- introspection ---------------------------------------------------------

    def locked_owner(self, out_port: int) -> Optional[Tuple[int, int]]:
        return self._locks.get(out_port)

    # -- the per-cycle decision ---------------------------------------------------

    def schedule(self, bids: List[Bid], now_tick: int) -> List[Bid]:
        """Grant at most one bid per output port; return the winners."""
        by_output: Dict[int, List[Bid]] = {}
        for bid in bids:
            by_output.setdefault(bid.out_port, []).append(bid)

        grants: List[Bid] = []
        if self._locks:
            # Outputs locked by owners that did not bid this cycle still
            # need WTA unlock processing, so visit all locked outputs too.
            outputs = sorted(set(by_output) | set(self._locks))
        else:
            outputs = sorted(by_output)
        schedule_output = self._schedule_output
        get_bids = by_output.get
        for out_port in outputs:
            granted = schedule_output(out_port, get_bids(out_port, ()), now_tick)
            if granted is not None:
                grants.append(granted)
        return grants

    def _schedule_output(
        self, out_port: int, bids: List[Bid], now_tick: int
    ) -> Optional[Bid]:
        owner = self._locks.get(out_port) if self._locks else None

        if owner is not None:
            owner_bid = next((b for b in bids if b.key() == owner), None)
            if self.flow_control == PACKET_BUFFER:
                # Locked until the tail enters the crossbar, full stop.
                if owner_bid is None:
                    return None  # upstream gap: output idles, lock holds
                if self.credits_available(out_port, owner_bid.out_vc) < 1:
                    raise RuntimeError(
                        "packet-buffer flow control credit-stalled: the "
                        "full-packet reservation was violated"
                    )
                return self._grant(out_port, owner_bid)
            if self.flow_control == WINNER_TAKE_ALL:
                can_stream = (
                    owner_bid is not None
                    and self.credits_available(out_port, owner_bid.out_vc) >= 1
                )
                if can_stream:
                    return self._grant(out_port, owner_bid)
                # Owner stalled: unlock and let others compete this cycle.
                del self._locks[out_port]
                owner = None
            # FLIT_BUFFER never locks, so owner is never set for it.

        credits_available = self.credits_available
        num_vcs = self.num_vcs
        if self.flow_control == PACKET_BUFFER:
            # Enough space for the whole remaining packet up front.
            eligible = [
                b for b in bids
                if credits_available(out_port, b.out_vc) >= b.remaining_flits
            ]
        else:
            eligible = [
                b for b in bids if credits_available(out_port, b.out_vc) >= 1
            ]
        if not eligible:
            return None
        if len(eligible) == 1:
            # Uncontested: the winner is forced, but the arbiter still
            # sees the request so its rotation/priority state advances
            # exactly as with the general path.
            winner = eligible[0]
            self._arbiters[out_port].arbitrate(
                [(winner.in_port * num_vcs + winner.in_vc, winner.packet)],
                now_tick,
            )
        else:
            requests = [
                (b.in_port * num_vcs + b.in_vc, b.packet) for b in eligible
            ]
            winner_index = self._arbiters[out_port].arbitrate(requests, now_tick)
            winner = next(
                b for b in eligible
                if b.in_port * num_vcs + b.in_vc == winner_index
            )
        if self.flow_control in (PACKET_BUFFER, WINNER_TAKE_ALL):
            self._locks[out_port] = winner.key()
        return self._grant(out_port, winner)

    def _grant(self, out_port: int, bid: Bid) -> Bid:
        if bid.is_tail and self._locks.get(out_port) == bid.key():
            del self._locks[out_port]
        return bid
