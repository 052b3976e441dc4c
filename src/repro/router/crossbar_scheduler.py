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

The scheduler is the only code that grants a crossbar slot, and it is
microarchitecture-agnostic.  Each cycle the owning router calls
``grant`` with its bidders -- the flat index ``i = in_port * num_vcs +
in_vc`` of each input VC whose front flit may move, the index its
arbiter already uses -- and a free-space table ``free[o]`` indexed by
output VC ``o = out_port * num_vcs + out_vc``: the downstream credits
for the IQ router, the free output-queue slots for the IOQ router.
The scheduler reads each bidder's flits, packet and output VC from the
router's input tables; the router pops the flits of the bidders it
gets back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.config.spec import Block, KeySpec
from repro.router.arbiter import ARBITER, create_arbiter

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.settings import Settings
    from repro.core.rng import RandomManager
    from repro.router.base import Router

FLIT_BUFFER = "flit_buffer"
PACKET_BUFFER = "packet_buffer"
WINNER_TAKE_ALL = "winner_take_all"


class CrossbarScheduler:
    """Per-output arbitration with configurable flow control locking.

    Settings:
        ``flow_control`` -- one of ``flit_buffer`` (default),
            ``packet_buffer``, ``winner_take_all``.
        ``arbiter`` -- sub-block for the arbiter, one slot per output
            port (``type`` defaults to ``round_robin``); a random
            arbiter's slot ``p`` draws from the ``{label}.out{p}`` stream.
    """

    SETTINGS = {
        "flow_control": KeySpec(
            "str", FLIT_BUFFER,
            choices=(FLIT_BUFFER, PACKET_BUFFER, WINNER_TAKE_ALL)),
        "arbiter": ARBITER,
    }

    def __init__(
        self,
        router: "Router",
        settings: "Settings",
        random: "RandomManager",
        label: str,
    ):
        num_ports = self.num_ports = router.num_ports
        num_vcs = self.num_vcs = router.num_vcs
        # The router's input tables, indexed by bidder.
        self._flits = router._in_flits
        self._packet = router._in_packet
        self._out_port = router._in_out_port
        self._out_vc = router._in_out_vc
        self.flow_control = settings.read(CrossbarScheduler, "flow_control")
        self._locking = self.flow_control != FLIT_BUFFER
        self.arbiter = create_arbiter(
            settings.read(CrossbarScheduler, "arbiter"), num_ports,
            num_ports * num_vcs, random, f"{label}.out{{}}".format)
        # Lock table: out_port -> the streaming owner's input VC.
        self._locks: Dict[int, int] = {}

    # -- introspection ---------------------------------------------------------

    def locked_owner(self, out_port: int) -> Optional[Tuple[int, int]]:
        """The (in_port, in_vc) holding ``out_port``'s lock, if any."""
        owner = self._locks.get(out_port)
        return None if owner is None else divmod(owner, self.num_vcs)

    # -- the per-cycle decision ---------------------------------------------------

    def grant(
        self, bidders: List[int], free: Sequence[int], now_tick: int
    ) -> List[int]:
        """Grant at most one bidder per output port; return the winners."""
        out_port_of = self._out_port
        if not self._locking:
            outputs = 0
            for i in bidders:
                bit = 1 << out_port_of[i]
                if outputs & bit:
                    break
                outputs |= bit
            else:
                # Every bidder targets its own output and nothing locks:
                # each grant is forced, in bidder order.
                arbiter = self.arbiter
                out_vc_of = self._out_vc
                packet_of = self._packet
                num_vcs = self.num_vcs
                grants = []
                for i in bidders:
                    out_port = out_port_of[i]
                    if free[out_port * num_vcs + out_vc_of[i]] >= 1:
                        arbiter.forced(out_port, i, packet_of[i], now_tick)
                        grants.append(i)
                return grants
        return self._arbitrate(bidders, free, now_tick)

    def _arbitrate(
        self, bidders: List[int], free: Sequence[int], now_tick: int
    ) -> List[int]:
        """Each output port, in ascending order, grants its lock owner or
        its arbiter's pick among the bidders with space downstream."""
        out_port_of = self._out_port
        out_vc_of = self._out_vc
        packet_of = self._packet
        flits_of = self._flits
        num_vcs = self.num_vcs
        by_output: Dict[int, List[int]] = {}
        for i in bidders:
            by_output.setdefault(out_port_of[i], []).append(i)
        locks = self._locks
        # Outputs locked by owners that did not bid this cycle still
        # need WTA unlock processing, so visit all locked outputs too.
        outputs = sorted(by_output.keys() | locks.keys() if locks else by_output)
        packet_buffer = self.flow_control == PACKET_BUFFER
        grants: List[int] = []
        for out_port in outputs:
            bids = by_output.get(out_port, ())
            first = out_port * num_vcs
            owner = locks.get(out_port)
            winner = None
            if owner is not None:
                if owner in bids:
                    winner = owner
                if packet_buffer:
                    # Locked until the tail enters the crossbar, full stop.
                    if winner is None:
                        continue  # upstream gap: output idles, lock holds
                    if free[first + out_vc_of[winner]] < 1:
                        raise RuntimeError(
                            "packet-buffer flow control credit-stalled: the "
                            "full-packet reservation was violated"
                        )
                elif winner is None or free[first + out_vc_of[winner]] < 1:
                    # Winner-take-all owner stalled: unlock and let the
                    # others compete this cycle.
                    del locks[out_port]
                    winner = None
            if winner is None:
                if packet_buffer:
                    # Enough space for the whole remaining packet up front.
                    eligible = [
                        i for i in bids
                        if free[first + out_vc_of[i]]
                        >= packet_of[i].num_flits - flits_of[i][0].index
                    ]
                else:
                    eligible = [i for i in bids if free[first + out_vc_of[i]] >= 1]
                if not eligible:
                    continue
                if len(eligible) == 1:
                    winner = eligible[0]
                    self.arbiter.forced(out_port, winner, packet_of[winner], now_tick)
                else:
                    winner = self.arbiter.arbitrate(
                        out_port, [(i, packet_of[i]) for i in eligible], now_tick
                    )
                if self._locking:
                    locks[out_port] = winner
            if flits_of[winner][0].tail and locks.get(out_port) == winner:
                del locks[out_port]
            grants.append(winner)
        return grants


#: A crossbar scheduler settings block.
CROSSBAR = Block(CrossbarScheduler)
