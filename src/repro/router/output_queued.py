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

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro import factory
from repro.net.buffer import FlitBuffer
from repro.net.flit import Flit
from repro.router.arbiter import Arbiter, RoundRobinArbiter, create_arbiter
from repro.router.base import Router
from repro.router.congestion import SOURCE_OUTPUT

if TYPE_CHECKING:  # pragma: no cover
    pass


@factory.register(Router, "output_queued")
class OutputQueuedRouter(Router):
    """The idealized OQ router model."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        depth = self.settings.get("output_queue_depth", None)
        if depth is not None and (not isinstance(depth, int) or depth < 1):
            raise ValueError(f"output_queue_depth must be a positive int or null")
        self.output_queue_depth: Optional[int] = depth
        self._queues: List[List[FlitBuffer]] = [
            [
                FlitBuffer(None, f"{self.full_name}.oq{p}.vc{v}")
                for v in range(self.num_vcs)
            ]
            for p in range(self.num_ports)
        ]
        # Committed slots per (port, vc): queued + in flight through the core.
        self._committed: List[List[int]] = [
            [0] * self.num_vcs for _ in range(self.num_ports)
        ]
        # Flits actually sitting in queues per port (drain-stage fast path).
        self._queued_count = [0] * self.num_ports
        # Sum over _committed, so _has_work is O(1).
        self._committed_total = 0
        arbiter_settings = self.settings.child("output_arbiter", default={})
        self._output_arbiters: List[Arbiter] = [
            create_arbiter(arbiter_settings, self.num_vcs)
            for _ in range(self.num_ports)
        ]
        # Recycled request list for the drain stage (per-event H001:
        # arbiters never retain the list they arbitrate over).
        self._drain_requests: list = []

    def _finalize_arch(self) -> None:
        for port in range(self.num_ports):
            if self.port_is_wired(port):
                self.sensor.init_port(
                    port,
                    output_capacity=[self.output_queue_depth] * self.num_vcs,
                )

    # -- per-cycle behaviour -----------------------------------------------------

    def _step_cycle(self) -> None:
        self._drain_outputs()
        self._update_input_vcs()
        # OQ allocates in its own fused pass below; drop the queue the
        # routing stage feeds for _allocate_vcs-based architectures.
        self._alloc_pending.clear()
        self._allocate_and_move()

    def _has_work(self) -> bool:
        return bool(self._occupied_inputs) or self._committed_total > 0

    def _drain_outputs(self) -> None:
        """Send one flit per port per channel cycle, credits permitting."""
        queued_count = self._queued_count
        if not any(queued_count):
            return
        flit_out = self._flit_out
        queues = self._queues
        committed = self._committed
        trackers = self._output_credits
        arbiters = self._output_arbiters
        sensor_record = self.sensor.record
        now = self.simulator.tick
        single_vc = self.num_vcs == 1
        for port in range(self.num_ports):
            if queued_count[port] == 0:
                continue
            channel = flit_out[port]
            if now < channel._next_free_tick:
                continue
            credits = trackers[port]._credits
            port_queues = queues[port]
            if single_vc:
                # One VC: the only possible request either exists with
                # credit or the port stalls; the single-entry arbitration
                # is forced (and leaves a round-robin pointer unmoved).
                if credits[0] < 1:
                    continue
                vc = 0
                flits = port_queues[0]._flits
                arbiter = arbiters[port]
                if type(arbiter) is not RoundRobinArbiter:
                    arbiter.arbitrate([(0, flits[0].packet)], now)
                flit = flits.popleft()
            else:
                requests = self._drain_requests
                requests.clear()
                for vc, queue in enumerate(port_queues):
                    flits = queue._flits
                    if flits and credits[vc] > 0:
                        requests.append((vc, flits[0].packet))
                if not requests:
                    continue
                vc = arbiters[port].arbitrate(requests, now)
                flit = port_queues[vc].pop()
            committed[port][vc] -= 1
            queued_count[port] -= 1
            self._committed_total -= 1
            sensor_record(SOURCE_OUTPUT, port, vc, -1)
            self.send_flit_out(port, flit)

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
        if not occupied:
            return
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
        input_vcs = self._input_vcs
        committed = self._committed
        depth = self.output_queue_depth
        pop_input_flit = self._pop_input_flit
        sensor_record = self.sensor.record
        enter_core = self._core_fifo.append
        arrival_tick = self.simulator.tick + self.core_latency
        admit = self._admit
        for port, vc in order:
            state = input_vcs[port][vc]
            if state.packet is None:
                continue
            if not state.allocated:
                for out_port, out_vc in state.candidates:
                    key = (out_port, out_vc)
                    if key in owner_table:
                        continue
                    if not admit(out_port, out_vc, state.packet):
                        continue
                    owner_table[key] = (port, vc)
                    state.allocated = True
                    state.out_port = out_port
                    state.out_vc = out_vc
                    break
                else:
                    continue
            if not state.buffer._flits:
                continue
            out_port, out_vc = state.out_port, state.out_vc
            if depth is not None and committed[out_port][out_vc] >= depth:
                continue  # finite queue full: flit waits in the input
            flit = pop_input_flit(port, vc)
            committed[out_port][out_vc] += 1
            self._committed_total += 1
            sensor_record(SOURCE_OUTPUT, out_port, out_vc, +1)
            enter_core((arrival_tick, flit, out_port, out_vc))

    def _land(self, flit: Flit, out_port: int, out_vc: int) -> None:
        self._queues[out_port][out_vc].push(flit)
        self._queued_count[out_port] += 1

    # -- introspection ------------------------------------------------------------

    def output_queue_occupancy(self, port: int, vc: int) -> int:
        """Committed flits (queued + in flight) for one output VC."""
        return self._committed[port][vc]
