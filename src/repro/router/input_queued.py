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
from repro.config.spec import KeySpec
from repro.core.event import Event
from repro.net.flit import Flit
from repro.router.base import Router
from repro.router.congestion import PENDING_LIMIT
from repro.router.crossbar_scheduler import CROSSBAR


@factory.register(Router, "input_queued")
class InputQueuedRouter(Router):
    """The standard IQ router model.

    Extra settings:
        ``crossbar_scheduler`` -- flow control + arbiter configuration.
        ``output_staging_depth`` -- per-port staging register depth
            decoupling the core clock from the channel clock.
    """

    SETTINGS = {
        "output_staging_depth": KeySpec("uint", 2, minimum=1),
        "crossbar_scheduler": CROSSBAR,
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.output_staging_depth = self.settings.read(
            type(self), "output_staging_depth")
        # The core is pipelined: up to core_latency flits are legitimately
        # in flight to each output at once, plus the staging register
        # itself.  Gating grants below this ceiling only throttles when
        # the channel (not the core) is the bottleneck.
        self._staging_limit = self.core_latency + self.output_staging_depth
        self._build_schedulers()
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
        # Recycled by the drain stage: no per-event list garbage.
        self._staged_ports_spare: List[int] = []

    # -- per-cycle behaviour ---------------------------------------------------

    def _step(self, event: Event) -> None:
        """One core-clock cycle: land core arrivals -> drain (inlined) ->
        route -> allocate -> crossbar -> fold the sensor's delay line,
        each stage entered only when its worklist is non-empty
        (``tests/router/test_iq_step_order.py`` pins the order)."""
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

        if self._sensed and len(self._sensed) > PENDING_LIMIT:
            self.sensor.fold()

        # Reschedule while work remains, else sleep until woken.
        if occupied or self._committed_total:
            if self._core_period1:
                tick = now + 1
            else:
                tick = self.core_clock.following_edge(now)
            wheel = self._step_wheel
            slot = wheel._slots.get(tick)  # PhaseWheel.add, inlined
            if slot is None:
                wheel.add(tick, self._step)
            else:
                slot.append(self._step)
        else:
            self._step_scheduled = False

    def _run_crossbar(self) -> None:
        out_ports = self._in_out_port
        committed = self._staging_committed
        staging_limit = self._staging_limit
        bidders = []
        for i in self._occupied_inputs:
            out_port = out_ports[i]
            if out_port >= 0 and committed[out_port] < staging_limit:
                bidders.append(i)
        scheduler = self.scheduler
        if not bidders and not scheduler._locks:
            return
        now = self.simulator.tick
        # The free-space table is the downstream credits.
        granted = scheduler.grant(bidders, self._credits, now)
        out_vcs = self._in_out_vc
        take_credit = self.take_credit
        num_vcs = self.num_vcs
        down_slots = self._down_slots
        sensed = self._sensed
        due = now + self._sense_latency
        enter_core = self._core_fifo.append
        arrival_tick = now + self.core_latency
        pop_input_flit = self._pop_input_flit
        for i in granted:
            out_port = out_ports[i]
            out_vc = out_vcs[i]
            flit = pop_input_flit(i)
            # Consume the downstream credit now; the flit is prepaid.
            take_credit(out_port, out_vc)
            if down_slots is not None:
                sensed.append((due, down_slots[out_port * num_vcs + out_vc], +1))
            committed[out_port] += 1
            enter_core((arrival_tick, flit, out_port, out_vc))
        self._committed_total += len(granted)

    def _land_core_arrivals(self) -> None:
        """Stage every flit whose core traversal is over."""
        fifo = self._core_fifo
        now = self.simulator.tick
        staging_regs = self._staging
        staged_ports = self._staged_ports
        landed = 0
        while fifo and fifo[0][0] <= now:
            _arrival, flit, out_port, _out_vc = fifo.popleft()
            staging = staging_regs[out_port]
            if not staging:
                staged_ports.append(out_port)
            staging.append(flit)
            landed += 1
        self._staged_total += landed
