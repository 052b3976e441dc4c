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

from repro import factory
from repro.core.event import Event
from repro.net.buffer import BufferOverrunError
from repro.router.arbiter import RoundRobinArbiter
from repro.router.base import Router
from repro.router.congestion import PENDING_LIMIT
from repro.router.crossbar_scheduler import FLIT_BUFFER, Bid, CrossbarScheduler
from repro.router.output_queued import OutputQueuedRouter


@factory.register(Router, "input_output_queued")
class InputOutputQueuedRouter(OutputQueuedRouter):
    """The combined input/output queued router model: output queues,
    their landing and their drain are the OQ router's; VC allocation and
    a crossbar scheduler replace its conflict-free move.

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
        # Flit-buffer flow control never locks, which unlocks a slim
        # uncontested-grant path in _run_crossbar.
        self._fb_mode = self.scheduler.flow_control == FLIT_BUFFER
        # Recycled single-request list (arbiters never retain it).
        self._one_request: list = [None]

    def _output_queue_credits(self, out_port: int, out_vc: int) -> int:
        """Free output-queue slots (not queued, not in the core)."""
        return self.output_queue_depth - self._committed[out_port][out_vc]

    # -- per-cycle behaviour ------------------------------------------------------

    def _step(self, event: Event) -> None:
        """One core-clock cycle: land -> drain -> route -> allocate ->
        crossbar -> fold the sensor's delay line -> reschedule while work
        remains (``tests/router/test_oq_ioq_step_order.py``)."""
        now = self.simulator.tick
        fifo = self._core_fifo
        if fifo and fifo[0][0] <= now:
            self._land_core_arrivals()
        if self._queued_ports:
            self._drain_output_queues(now)
        if self._route_pending:
            self._update_input_vcs()
        if self._alloc_pending:
            self._allocate_vcs()
        occupied = self._occupied_inputs
        if occupied or self.scheduler._locks:
            self._run_crossbar()
        if len(self._sensed) > PENDING_LIMIT:
            self.sensor.fold()
        if occupied or self._committed_total:
            if self._core_period1:
                tick = now + 1
            else:
                tick = self.core_clock.following_edge(now)
            self._step_wheel.add(tick, self._step)
        else:
            self._step_scheduled = False

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
        committed = self._committed
        if len(bidders) == 1 and not locks and self._fb_mode:
            # Uncontested flit-buffer grant: same decision the scheduler
            # would make, without Bid/schedule overhead.  The output
            # arbiter still sees the request so rotation state stays
            # bit-identical with the general path.
            port, vc, state, flit = bidders[0]
            out_port, out_vc = state.out_port, state.out_vc
            if committed[out_port][out_vc] >= self.output_queue_depth:
                return
            # The arbiter still rotates exactly as its single-request
            # path would, without the per-event request-list allocation.
            arbiter = scheduler._arbiters[out_port]
            if type(arbiter) is RoundRobinArbiter:
                arbiter._pointer = (
                    port * scheduler.num_vcs + vc + 1
                ) % arbiter.size
            else:
                request = self._one_request
                request[0] = (port * scheduler.num_vcs + vc, state.packet)
                arbiter.arbitrate(request, now)
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
        out_slots = self._out_slots
        sensed = self._sensed
        due = now + self._sense_latency
        enter_core = self._core_fifo.append
        arrival_tick = now + self.core_latency
        for in_port, in_vc, out_port, out_vc in grants:
            if committed[out_port][out_vc] >= self.output_queue_depth:
                raise BufferOverrunError(  # §IV-D: queues never overrun
                    f"{self.full_name}.oq{out_port}.vc{out_vc}: buffer overrun"
                )
            flit = pop_input_flit(in_port, in_vc)
            committed[out_port][out_vc] += 1
            self._committed_total += 1
            if out_slots is not None:
                sensed.append((due, out_slots[out_port][out_vc], +1))
            enter_core((arrival_tick, flit, out_port, out_vc))
