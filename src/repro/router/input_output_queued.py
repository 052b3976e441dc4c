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
from repro.config.spec import KeySpec
from repro.core.event import Event
from repro.router.base import Router
from repro.router.congestion import PENDING_LIMIT
from repro.router.crossbar_scheduler import CROSSBAR
from repro.router.output_queued import OutputQueuedRouter


@factory.register(Router, "input_output_queued")
class InputOutputQueuedRouter(OutputQueuedRouter):
    """The combined input/output queued router model: output queues,
    their landing and their drain are the OQ router's; VC allocation and
    a crossbar scheduler replace its conflict-free move.

    Extra settings:
        ``output_queue_depth`` -- per-(port, VC) output queue capacity
            in flits (finite: no null).
        ``crossbar_scheduler`` -- flow control + arbiter configuration
            for the input-to-output-queue crossbar.
        ``output_arbiter`` -- arbiter choosing among VCs at each output
            each channel cycle, one slot per port.
    """

    SETTINGS = {
        "output_queue_depth": KeySpec("uint", 64, minimum=1),
        "crossbar_scheduler": CROSSBAR,
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._build_schedulers()

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
        out_ports = self._in_out_port
        bidders = [i for i in self._occupied_inputs if out_ports[i] >= 0]
        scheduler = self.scheduler
        if not bidders and not scheduler._locks:
            return
        now = self.simulator.tick
        # The free-space table is the output queues' free slots.
        queue_free = self._queue_free
        granted = scheduler.grant(bidders, queue_free, now)
        out_vcs = self._in_out_vc
        num_vcs = self.num_vcs
        pop_input_flit = self._pop_input_flit
        out_slots = self._out_slots
        sensed = self._sensed
        due = now + self._sense_latency
        enter_core = self._core_fifo.append
        arrival_tick = now + self.core_latency
        for i in granted:
            out_port = out_ports[i]
            out_vc = out_vcs[i]
            o = out_port * num_vcs + out_vc
            flit = pop_input_flit(i)
            queue_free[o] -= 1
            if out_slots is not None:
                sensed.append((due, out_slots[o], +1))
            enter_core((arrival_tick, flit, out_port, out_vc))
        self._committed_total += len(granted)
