"""Input-output-queued (IOQ) router architecture (paper §IV-C, Fig. 6).

The IOQ router extends the standard input-queued architecture into a
combined input/output queued switch [Chuang et al.]: it has full
crossbar input *and* output speedup and pipeline optimizations in both
the input and output queues.  Flits wait in the input queues only until
credits are available for the *output queues*; after arriving in the
output queues they wait until downstream (next hop) credits are
available.

This is the architecture of case study B (§VI-B): its congestion sensor
can account credits per VC or per port, and can count output-queue
credits, downstream credits, or both -- six accounting styles total,
configured entirely through the ``congestion_sensor`` settings block.

With ``frequency speedup`` (core clock faster than the channel clock,
Table I uses 2x) the crossbar performs multiple grants per channel
cycle, which is what gives the architecture its output speedup.
"""

from __future__ import annotations

from typing import List

from repro import factory
from repro.net.buffer import FlitBuffer
from repro.net.credit import CreditTracker
from repro.net.flit import Flit
from repro.router.arbiter import Arbiter, RoundRobinArbiter, create_arbiter
from repro.router.base import Router
from repro.router.congestion import SOURCE_OUTPUT
from repro.router.crossbar_scheduler import FLIT_BUFFER, Bid, CrossbarScheduler


@factory.register(Router, "input_output_queued")
class InputOutputQueuedRouter(Router):
    """The combined input/output queued router model.

    Extra settings:
        ``output_queue_depth`` -- per-(port, VC) output queue capacity
            in flits (default 64).
        ``crossbar_scheduler`` -- flow control + arbiter configuration
            for the input-to-output-queue crossbar.
        ``output_arbiter`` -- arbiter choosing among VCs at each output
            each channel cycle (default round robin).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.output_queue_depth = self.settings.get_uint("output_queue_depth", 64)
        scheduler_settings = self.settings.child("crossbar_scheduler", default={})
        self.scheduler = CrossbarScheduler(
            self.num_ports,
            self.num_vcs,
            scheduler_settings,
            credits_available=self._output_queue_credits,
        )
        self._queues: List[List[FlitBuffer]] = [
            [
                FlitBuffer(
                    self.output_queue_depth, f"{self.full_name}.oq{p}.vc{v}"
                )
                for v in range(self.num_vcs)
            ]
            for p in range(self.num_ports)
        ]
        # Internal credits for output-queue slots (queued + in flight).
        self._oq_credits: List[CreditTracker] = [
            CreditTracker(
                [self.output_queue_depth] * self.num_vcs,
                owner_name=f"{self.full_name}.oqcredits{p}",
            )
            for p in range(self.num_ports)
        ]
        arbiter_settings = self.settings.child("output_arbiter", default={})
        self._output_arbiters: List[Arbiter] = [
            create_arbiter(arbiter_settings, self.num_vcs)
            for _ in range(self.num_ports)
        ]
        # Flit-buffer flow control never locks, which unlocks a slim
        # uncontested-grant path in _run_crossbar.
        self._fb_mode = self.scheduler.flow_control == FLIT_BUFFER
        # Flits sitting in output queues per port (drain-stage fast path).
        self._queued_count = [0] * self.num_ports
        # Sum over _queued_count, so _has_work is O(1).
        self._queued_total = 0

    def _output_queue_credits(self, out_port: int, out_vc: int) -> int:
        return self._oq_credits[out_port].available(out_vc)

    def _finalize_arch(self) -> None:
        for port in range(self.num_ports):
            if self.port_is_wired(port):
                self.sensor.init_port(
                    port,
                    output_capacity=[self.output_queue_depth] * self.num_vcs,
                )

    # -- per-cycle behaviour ------------------------------------------------------

    def _step_cycle(self) -> None:
        self._drain_outputs()
        self._update_input_vcs()
        self._allocate_vcs()
        self._run_crossbar()

    def _has_work(self) -> bool:
        return (
            bool(self._occupied_inputs)
            or bool(self._core_fifo)
            or self._queued_total > 0
        )

    def _drain_outputs(self) -> None:
        """Per channel cycle, send one flit per port downstream."""
        queued_count = self._queued_count
        if self._queued_total == 0:
            return
        flit_out = self._flit_out
        queues = self._queues
        trackers = self._output_credits
        oq_credits = self._oq_credits
        arbiters = self._output_arbiters
        sensor_record = self.sensor.record
        now = self.simulator.tick
        for port in range(self.num_ports):
            if queued_count[port] == 0:
                continue
            channel = flit_out[port]
            if now < channel._next_free_tick:
                continue
            credits = trackers[port]._credits
            requests = []
            for vc, queue in enumerate(queues[port]):
                flits = queue._flits
                if flits and credits[vc] > 0:
                    requests.append((vc, flits[0].packet))
            if not requests:
                continue
            vc = arbiters[port].arbitrate(requests, now)
            flit = queues[port][vc].pop()
            queued_count[port] -= 1
            self._queued_total -= 1
            oq_credits[port].give(vc)
            sensor_record(SOURCE_OUTPUT, port, vc, -1)
            self.send_flit_out(port, flit)

    def _run_crossbar(self) -> None:
        bidders = []
        input_vcs = self._input_vcs
        for port, vc in self._occupied_inputs:
            state = input_vcs[port][vc]
            if not state.allocated:
                continue
            flits = state.buffer._flits
            if not flits:
                continue
            bidders.append((port, vc, state, flits[0]))
        scheduler = self.scheduler
        locks = scheduler._locks
        if not bidders and not locks:
            return
        now = self.simulator.tick
        oq_credits = self._oq_credits
        if len(bidders) == 1 and not locks and self._fb_mode:
            # Uncontested flit-buffer grant: same decision the scheduler
            # would make, without Bid/schedule overhead.  The output
            # arbiter still sees the request so rotation state stays
            # bit-identical with the general path.
            port, vc, state, flit = bidders[0]
            out_port, out_vc = state.out_port, state.out_vc
            if oq_credits[out_port]._credits[out_vc] < 1:
                return
            # The arbiter still rotates exactly as its single-request
            # path would, without the per-event request-list allocation.
            arbiter = scheduler._arbiters[out_port]
            if type(arbiter) is RoundRobinArbiter:
                arbiter._pointer = (
                    port * scheduler.num_vcs + vc + 1
                ) % arbiter.size
            else:
                arbiter.arbitrate(
                    [(port * scheduler.num_vcs + vc, state.packet)], now
                )
            grants = ((port, vc, out_port, out_vc),)
        else:
            bids = [
                Bid(port, vc, state.packet, flit, state.out_port, state.out_vc)
                for port, vc, state, flit in bidders
            ]
            grants = [
                (g.in_port, g.in_vc, g.out_port, g.out_vc)
                for g in scheduler.schedule(bids, now)
            ]
            if not grants:
                return
        pop_input_flit = self._pop_input_flit
        sensor_record = self.sensor.record
        enter_core = self._core_fifo.append
        arrival_tick = now + self.core_latency
        for in_port, in_vc, out_port, out_vc in grants:
            flit = pop_input_flit(in_port, in_vc)
            oq_credits[out_port].take(out_vc)
            sensor_record(SOURCE_OUTPUT, out_port, out_vc, +1)
            enter_core((arrival_tick, flit, out_port, out_vc))

    def _land(self, flit: Flit, out_port: int, out_vc: int) -> None:
        self._queues[out_port][out_vc].push(flit)
        self._queued_count[out_port] += 1
        self._queued_total += 1
