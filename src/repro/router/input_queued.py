"""Input-queued (IQ) router architecture (paper §IV-C).

Modeled after the standard input-queued architecture of Dally & Towles
[11], with full crossbar input speedup (every input VC can traverse the
crossbar in the same cycle) and an optimized input-queue pipeline for
back-to-back packets (route + VC-allocate + first crossbar traversal can
all happen in the arrival cycle).  Flits wait in the input queues until
downstream (next hop) credits are available.

The crossbar scheduler implements the flow control technique under
study (``flit_buffer`` / ``packet_buffer`` / ``winner_take_all``,
§VI-C) via the ``crossbar_scheduler`` settings block.

Flits that win the crossbar consume their downstream credit at grant
time, traverse the core in ``core_latency`` ticks (waiting in the
router's in-core pipeline FIFO), and land in a small per-port output
staging register that drains onto the channel at the channel clock
rate.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro import factory
from repro.core.event import Event
from repro.net.flit import Flit
from repro.router.base import Router
from repro.router.congestion import SOURCE_DOWNSTREAM
from repro.router.arbiter import RoundRobinArbiter
from repro.router.crossbar_scheduler import FLIT_BUFFER, Bid, CrossbarScheduler


@factory.register(Router, "input_queued")
class InputQueuedRouter(Router):
    """The standard IQ router model.

    Extra settings:
        ``crossbar_scheduler`` -- flow control + arbiter configuration.
        ``output_staging_depth`` -- per-port staging register depth
            decoupling the core clock from the channel clock (default 2).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.output_staging_depth = self.settings.get_uint("output_staging_depth", 2)
        # The core is pipelined: up to core_latency flits are legitimately
        # in flight to each output at once, plus the staging register
        # itself.  Gating grants below this ceiling only throttles when
        # the channel (not the core) is the bottleneck.
        self._staging_limit = self.core_latency + self.output_staging_depth
        scheduler_settings = self.settings.child("crossbar_scheduler", default={})
        self.scheduler = CrossbarScheduler(
            self.num_ports,
            self.num_vcs,
            scheduler_settings,
            credits_available=self._downstream_credits,
        )
        # Flit-buffer flow control never locks, which unlocks a slim
        # uncontested-grant path in _run_crossbar.
        self._fb_mode = self.scheduler.flow_control == FLIT_BUFFER
        self._staging: List[Deque[Flit]] = [deque() for _ in range(self.num_ports)]
        # Committed staging slots per port: staged + in flight through core.
        self._staging_committed = [0] * self.num_ports
        # Sum over _staging_committed, so _step's work test is O(1).
        self._committed_total = 0
        # Flits actually sitting in staging registers (vs. in the core):
        # lets the drain stage skip its port scan entirely when zero.
        self._staged_total = 0
        # Ports with a non-empty staging register (drain worklist);
        # a port appears exactly once while its register is non-empty.
        self._staged_ports: List[int] = []
        # Recycled by the drain stage (per-event list churn, cf. H001).
        self._staged_ports_spare: List[int] = []
        # Crossbar-bidder scratch; consumed within _run_crossbar only.
        self._xbar_bidders: list = []

    def _downstream_credits(self, out_port: int, out_vc: int) -> int:
        return self.output_credit_tracker(out_port).available(out_vc)

    # -- per-cycle behaviour ---------------------------------------------------

    def _step(self, event: Event) -> None:
        """One core-clock cycle: land core arrivals -> drain -> route ->
        allocate -> crossbar.

        Replaces :meth:`Router._step` outright (no ``_step_cycle`` /
        ``_has_work`` round trip): the staging drain is inlined here and
        each later stage is entered only when its worklist is non-empty.
        ``tests/router/test_iq_step_order.py`` pins the stage order.
        """
        now = self.simulator.tick

        fifo = self._core_fifo
        if fifo and fifo[0][0] <= now:
            self._land_core_arrivals()

        # Drain staging registers onto free channels.
        if self._staged_total:
            committed = self._staging_committed
            flit_out = self._flit_out
            staging_regs = self._staging
            keep = self._staged_ports_spare
            ports = self._staged_ports
            for port in ports:
                staging = staging_regs[port]
                channel = flit_out[port]
                if now >= channel._next_free_tick:
                    committed[port] -= 1
                    self._committed_total -= 1
                    self._staged_total -= 1
                    # Credit was taken at grant time: send without re-taking.
                    channel.send_flit(staging.popleft())
                    self.flits_sent += 1
                    if not staging:
                        continue
                keep.append(port)
            ports.clear()
            self._staged_ports_spare = ports
            self._staged_ports = keep

        # Route new head packets, then claim output VCs.
        if self._route_pending:
            self._update_input_vcs()
        if self._alloc_pending:
            self._allocate_vcs()

        # Crossbar.
        occupied = self._occupied_inputs
        scheduler = self.scheduler
        if occupied or scheduler._locks:
            self._run_crossbar()

        # Reschedule while work remains, else sleep until woken.
        if occupied or self._committed_total:
            if self._core_period1:
                tick = now + 1
            else:
                tick = self.core_clock.following_edge(now)
            self._step_wheel.add(tick, self._step)
        else:
            self._step_scheduled = False

    def _run_crossbar(self) -> None:
        input_vcs = self._input_vcs
        committed = self._staging_committed
        staging_limit = self._staging_limit
        bidders = self._xbar_bidders
        bidders.clear()
        out_mask = 0
        contested = False
        for port, vc in self._occupied_inputs:
            state = input_vcs[port][vc]
            if not state.allocated:
                continue
            if not state.buffer._flits:
                continue
            out_port = state.out_port
            if committed[out_port] >= staging_limit:
                continue
            bit = 1 << out_port
            if out_mask & bit:
                contested = True
            out_mask |= bit
            bidders.append((port, vc, state))
        scheduler = self.scheduler
        locks = scheduler._locks
        if not bidders and not locks:
            return
        now = self.simulator.tick
        trackers = self._output_credits
        sensor_record = self.sensor.record
        enter_core = self._core_fifo.append
        arrival_tick = now + self.core_latency
        if contested or locks or not self._fb_mode:
            # Contested outputs (or locking flow control): the full
            # scheduler decides.
            bids = [
                Bid(port, vc, state.packet, state.buffer._flits[0],
                    state.out_port, state.out_vc)
                for port, vc, state in bidders
            ]
            granted = scheduler.schedule(bids, now)
            if not granted:
                return
            pop_input_flit = self._pop_input_flit
            for g in granted:
                out_port, out_vc = g.out_port, g.out_vc
                flit = pop_input_flit(g.in_port, g.in_vc)
                # Consume the downstream credit now; the flit is prepaid.
                trackers[out_port].take(out_vc)
                sensor_record(SOURCE_DOWNSTREAM, out_port, out_vc, +1)
                committed[out_port] += 1
                self._committed_total += 1
                enter_core((arrival_tick, flit, out_port, out_vc))
            return
        # Flit-buffer flow control with every bidder targeting a distinct
        # output: each output arbiter sees exactly one request, so every
        # decision the scheduler would make is forced.  Grant inline,
        # with _pop_input_flit unrolled (the state is already in hand).
        arbiters = scheduler._arbiters
        num_vcs = scheduler.num_vcs
        send_credit = self.send_credit
        occupied = self._occupied_inputs
        owner_table = self._output_vc_owner
        for port, vc, state in bidders:
            out_port = state.out_port
            out_vc = state.out_vc
            tracker = trackers[out_port]
            if tracker._credits[out_vc] < 1:
                continue
            # The arbiter still rotates exactly as its single-request
            # path would, keeping contested rounds bit-identical.
            arbiter = arbiters[out_port]
            if type(arbiter) is RoundRobinArbiter:
                arbiter._pointer = (port * num_vcs + vc + 1) % arbiter.size
            else:
                arbiter.arbitrate([(port * num_vcs + vc, state.packet)], now)
            flits = state.buffer._flits
            flit = flits.popleft()
            if not flits:
                occupied.discard((port, vc))
            flit.vc = out_vc
            send_credit(port, vc)
            if flit.tail:  # release the output VC
                owner_key = (out_port, out_vc)
                owner = owner_table.get(owner_key)
                if owner != (port, vc):
                    raise RuntimeError(
                        f"{self.full_name}: tail flit released VC {owner_key} "
                        f"owned by {owner}, expected ({port}, {vc})"
                    )
                del owner_table[owner_key]
                flit.packet.hop_count += 1
                state.reset()
                if flits:
                    # The next queued packet's head is now at the front.
                    self._route_pending.append((port, vc))
            # Consume the downstream credit now; the flit is prepaid.
            tracker.take(out_vc)
            sensor_record(SOURCE_DOWNSTREAM, out_port, out_vc, +1)
            committed[out_port] += 1
            self._committed_total += 1
            enter_core((arrival_tick, flit, out_port, out_vc))

    def _land(self, flit: Flit, out_port: int, out_vc: int) -> None:
        staging = self._staging[out_port]
        staging.append(flit)
        if len(staging) == 1:
            self._staged_ports.append(out_port)
        self._staged_total += 1
