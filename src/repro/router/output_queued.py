"""Output-queued (OQ) router architecture (paper §IV-C).

An idealistic architecture with zero head-of-line blocking and no
scheduling conflicts: all input ports can simultaneously put flits into
any output queue.  Output queues may be infinite or finite.  Because the
model is devoid of VC allocation conflicts and crossbar scheduling it
also simulates fast, which is why case study A (§VI-A) uses it -- the
idealized datapath isolates the effect under study (latent congestion
detection) from microarchitectural bottlenecks.

Settings (beyond the Router base):
    ``output_queue_depth`` -- per-(port, VC) output queue capacity in
        flits; ``null``/absent means infinite.

Flit life cycle: input buffer -> (route, claim output VC) -> commit a
slot in the target output queue -> traverse the core (``core_latency``
ticks, queue-to-queue) -> output queue -> downstream channel when the
next-hop credit allows.

The congestion sensor's ``output`` source tracks *committed* flits
(queued plus in flight through the core), i.e. "the number of flits
resident in the output queues" that Singh's UGAL work used.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Deque, List, Optional

from repro import factory
from repro.config.spec import KeySpec
from repro.core.event import Event
from repro.net.flit import Flit
from repro.router.arbiter import ARBITER, RoundRobinArbiter, create_arbiter
from repro.router.base import Router
from repro.router.congestion import PENDING_LIMIT, SOURCE_OUTPUT


@factory.register(Router, "output_queued")
class OutputQueuedRouter(Router):
    """The idealized OQ router model (and the output-queue stages the
    IOQ router inherits)."""

    SETTINGS = {
        "output_queue_depth": KeySpec("uint", None, minimum=1, allow_null=True),
        "output_arbiter": ARBITER,
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        model = type(self)
        depth = self.output_queue_depth = self.settings.read(
            model, "output_queue_depth")
        # One output queue per output VC o = port * num_vcs + vc: an
        # unbounded deque, whose depth _queue_free[o] enforces -- the
        # free slots, the depth less the flits queued or in flight
        # through the core (an infinite queue starts at maxsize).
        num_outputs = self.num_ports * self.num_vcs
        self._queues: List[Deque[Flit]] = [deque() for _ in range(num_outputs)]
        self._queue_capacity = depth if depth is not None else sys.maxsize
        self._queue_free: List[int] = [self._queue_capacity] * num_outputs
        # Committed flits over all queues: work remains while non-zero.
        self._committed_total = 0
        # Flits sitting in queues per port; bitmask of the non-zero ports.
        self._queued_count = [0] * self.num_ports
        self._queued_ports = 0
        # One output arbiter, slot p choosing among port p's VCs.
        self._output_arbiter = create_arbiter(
            self.settings.read(model, "output_arbiter"), self.num_ports,
            self.num_vcs, self.random,
            f"{self.full_name}.output_arbiter.out{{}}".format)
        # Recycled drain request list (arbiters never retain it).
        self._drain_requests: list = []
        self._out_slots: Optional[List[Optional[int]]] = None

    def _finalize_arch(self) -> None:
        for port in range(self.num_ports):
            if self.port_is_wired(port):
                self.sensor.init_port(
                    port,
                    output_capacity=[self.output_queue_depth] * self.num_vcs,
                )
        self._out_slots = self._sensor_slots(SOURCE_OUTPUT)

    # -- per-cycle behaviour -----------------------------------------------------

    def _step(self, event: Event) -> None:
        """One core-clock cycle: land -> drain -> route -> claim and move
        -> fold the sensor's delay line -> reschedule while work remains.
        Each stage runs only when its worklist is non-empty
        (``tests/router/test_oq_ioq_step_order.py`` pins the order)."""
        now = self.simulator.tick
        fifo = self._core_fifo
        if fifo and fifo[0][0] <= now:
            self._land_core_arrivals()
        if self._queued_ports:
            self._drain_output_queues(now)
        if self._route_pending:
            self._update_input_vcs()
            self._alloc_pending.clear()  # OQ claims in its own fused pass
        occupied = self._occupied_inputs
        if occupied:
            self._allocate_and_move()
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

    def _drain_output_queues(self, now: int) -> None:
        """Send one flit per port per channel cycle, credits permitting,
        over the ports with queued flits in ascending port order."""
        mask = self._queued_ports
        flit_out = self._flit_out
        queues = self._queues
        queued_count = self._queued_count
        queue_free = self._queue_free
        credits = self._credits
        arbiter = self._output_arbiter
        out_slots = self._out_slots
        down_slots = self._down_slots
        sensed = self._sensed
        due = now + self._sense_latency
        num_vcs = self.num_vcs
        single_vc = num_vcs == 1
        requests = self._drain_requests
        while mask:
            low = mask & -mask
            mask ^= low
            port = low.bit_length() - 1
            channel = flit_out[port]
            if now < channel._next_free_tick:
                continue
            if single_vc:
                # One VC: o == port, and the single-entry arbitration is
                # forced (it leaves a round-robin pointer unmoved).
                if credits[port] < 1:
                    continue
                vc = 0
                o = port
                flits = queues[o]
                if type(arbiter) is not RoundRobinArbiter:
                    requests.clear()
                    requests.append((0, flits[0].packet))
                    arbiter.arbitrate(port, requests, now)
            else:
                first = port * num_vcs
                requests.clear()
                for o in range(first, first + num_vcs):
                    flits = queues[o]
                    if flits and credits[o] > 0:
                        requests.append((o - first, flits[0].packet))
                if not requests:
                    continue
                vc = arbiter.arbitrate(port, requests, now)
                o = first + vc
                flits = queues[o]
            flit = flits.popleft()
            queue_free[o] += 1
            self._committed_total -= 1
            queued_count[port] -= 1
            if not queued_count[port]:
                self._queued_ports ^= low
            if out_slots is not None:
                sensed.append((due, out_slots[o], -1))
            self.take_credit(port, vc)  # take, then send: CreditSan's contract
            channel.send_flit(flit)
            if down_slots is not None:
                sensed.append((due, down_slots[o], +1))
            self.flits_sent += 1

    def _land_core_arrivals(self) -> None:
        """Queue every flit whose core traversal is over."""
        fifo = self._core_fifo
        now = self.simulator.tick
        queues = self._queues
        queued_count = self._queued_count
        mask = self._queued_ports
        num_vcs = self.num_vcs
        while fifo and fifo[0][0] <= now:
            _arrival, flit, out_port, out_vc = fifo.popleft()
            queues[out_port * num_vcs + out_vc].append(flit)
            queued_count[out_port] += 1
            mask |= 1 << out_port
        self._queued_ports = mask

    def _allocate_and_move(self) -> None:
        """Claim output VCs and move one flit per input VC into its
        committed output queue, in a single fused pass.

        No scheduling conflicts (§IV-C): every input VC with available
        queue space moves simultaneously.  Fusing claim and move matters
        for the idealized semantics -- a single-flit packet claims and
        releases its output VC within the same pass, so *many* inputs
        can enqueue into the same output queue in one cycle (the
        "bombard a seemingly good output port" behaviour of adaptive
        routing that case study A depends on).  Ownership only persists
        across cycles for multi-flit packets, where it enforces wormhole
        atomicity per VC.
        """
        occupied = self._occupied_inputs
        if len(occupied) == 1:
            # Rotation over one element is the identity; skip the sort.
            self._alloc_rotor += 1
            order = list(occupied)
        else:
            flat = sorted(occupied)
            start = self._alloc_rotor % len(flat)  # fair rotation
            self._alloc_rotor += 1
            order = flat[start:] + flat[:start] if start else flat
        owner_table = self._output_vc_owner
        num_vcs = self.num_vcs
        in_packet = self._in_packet
        in_candidates = self._in_candidates
        out_ports = self._in_out_port
        out_vcs = self._in_out_vc
        queue_free = self._queue_free
        pop_input_flit = self._pop_input_flit
        out_slots = self._out_slots
        sensed = self._sensed
        due = self.simulator.tick + self._sense_latency
        enter_core = self._core_fifo.append
        arrival_tick = self.simulator.tick + self.core_latency
        moved = 0
        # Every input in ``order`` holds a flit: each is visited once
        # and popped at most once.
        for i in order:
            if in_packet[i] is None:
                continue
            out_port = out_ports[i]
            if out_port < 0:
                for out_port, out_vc in in_candidates[i]:
                    o = out_port * num_vcs + out_vc
                    if owner_table[o] >= 0:
                        continue
                    owner_table[o] = i
                    out_ports[i] = out_port
                    out_vcs[i] = out_vc
                    break
                else:
                    continue
            else:
                out_vc = out_vcs[i]
                o = out_port * num_vcs + out_vc
            if queue_free[o] < 1:
                continue  # finite queue full: flit waits in the input
            flit = pop_input_flit(i)
            queue_free[o] -= 1
            moved += 1
            if out_slots is not None:
                sensed.append((due, out_slots[o], +1))
            enter_core((arrival_tick, flit, out_port, out_vc))
        self._committed_total += moved

    # -- introspection ------------------------------------------------------------

    def output_queue_occupancy(self, port: int, vc: int) -> int:
        """Committed flits (queued + in flight) for one output VC."""
        return self._queue_capacity - self._queue_free[port * self.num_vcs + vc]
