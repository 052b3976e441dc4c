"""Router base class.

All three packaged router microarchitectures (OQ, IQ, IOQ -- paper
§IV-C) derive from :class:`Router`, which provides the structure they
share:

* per-(port, VC) input buffers with credit-returning pop,
* a routing engine per input port, built through the factory closure
  the Network provides (§IV-B),
* the input-VC state machine: route at the packet head, claim an
  output VC, stream, release at the tail,
* output VC ownership (wormhole: one packet streams on a given
  (output port, VC) at a time),
* a congestion sensor fed by credit/occupancy changes,
* the in-core pipeline FIFO: flits traversing the core for
  ``core_latency`` ticks wait in one per-router FIFO that the step
  drains, not in one engine event each,
* per-core-cycle stepping with sleep/wake: an awake router registers
  its ``_step`` on the simulator's ``EPS_STEP`` phase wheel
  (:mod:`repro.core.wheel`) for its next core edge -- one engine event
  steps every awake router of a tick -- and an idle one registers
  nothing.

Concrete architectures implement ``_step_cycle`` (one core-clock cycle
of allocation and transmission) and ``_has_work``, which the shared
``_step`` handler drives (OQ, IOQ) -- or replace ``_step`` itself with
a fused cycle (IQ, where the per-stage dispatch was measurable).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from repro import factory
from repro.core.clock import Clock
from repro.core.component import Component
from repro.core.event import Event
from repro.net.buffer import FlitBuffer
from repro.net.credit import Credit
from repro.net.device import PortedDevice
from repro.net.flit import Flit
from repro.net.packet import Packet
from repro.net.phases import EPS_STEP
from repro.router.arbiter import Arbiter, create_arbiter
from repro.router.congestion import SOURCE_DOWNSTREAM, CongestionSensor
from repro.routing.base import RoutingAlgorithm, RoutingError

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.settings import Settings
    from repro.core.simulator import Simulator

RoutingFactory = Callable[["Router", int], RoutingAlgorithm]


class InputVcState:
    """State machine for the packet at the front of one input VC buffer."""

    __slots__ = ("buffer", "packet", "candidates", "allocated", "out_port", "out_vc")

    def __init__(self, buffer: FlitBuffer):
        self.buffer = buffer
        self.packet: Optional[Packet] = None
        self.candidates: List[Tuple[int, int]] = []
        self.allocated = False
        self.out_port = -1
        self.out_vc = -1

    def reset(self) -> None:
        self.packet = None
        self.candidates = []
        self.allocated = False
        self.out_port = -1
        self.out_vc = -1


class Router(PortedDevice):
    """Abstract router; concrete architectures register with the factory.

    Common settings (each architecture adds its own):
        ``input_queue_depth`` -- per-VC input buffer capacity in flits.
        ``core_latency`` -- crossbar / queue-to-queue traversal latency
            in ticks.
        ``congestion_sensor`` -- sub-block for the sensor model
            (``type`` defaults to ``"credit"``).
    """

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        parent: Optional[Component],
        router_id: int,
        num_ports: int,
        num_vcs: int,
        settings: "Settings",
        routing_factory: RoutingFactory,
        core_clock: Clock,
        channel_clock: Clock,
    ):
        super().__init__(simulator, name, parent, num_ports, num_vcs)
        self.router_id = router_id
        self.settings = settings
        self.routing_factory = routing_factory
        self.core_clock = core_clock
        self.channel_clock = channel_clock
        self.address: Optional[Tuple[int, ...]] = None  # set by the network

        self.input_queue_depth = settings.get_uint("input_queue_depth", 16)
        self.core_latency = settings.get_uint("core_latency", 1)

        # Input buffers and their front-packet state machines.
        self._input_vcs: List[List[InputVcState]] = [
            [
                InputVcState(
                    FlitBuffer(self.input_queue_depth, f"{self.full_name}.in{p}.vc{v}")
                )
                for v in range(num_vcs)
            ]
            for p in range(num_ports)
        ]

        # Routing engines, one per input port (created in finalize()).
        self._routing: List[Optional[RoutingAlgorithm]] = [None] * num_ports

        # Wormhole output VC ownership: (port, vc) -> owner (in_port, in_vc).
        self._output_vc_owner: Dict[Tuple[int, int], Tuple[int, int]] = {}

        # VC scheduler: per-(output port, VC) arbitration among the input
        # VCs requesting it each cycle (created lazily).
        vc_scheduler_settings = settings.child("vc_scheduler", default={})
        self._vc_arbiter_settings = vc_scheduler_settings.child(
            "arbiter", default={}
        )
        self._vc_arbiters: Dict[Tuple[int, int], "Arbiter"] = {}

        # Congestion sensor.
        sensor_settings = settings.child("congestion_sensor", default={})
        sensor_type = sensor_settings.get_str("type", "credit")
        self.sensor: CongestionSensor = factory.create(
            CongestionSensor,
            sensor_type,
            simulator,
            "sensor",
            self,
            num_ports,
            num_vcs,
            sensor_settings,
        )

        # In-core pipeline: flits traversing the core, in grant order as
        # (arrival_tick, flit, out_port, out_vc); core_latency is constant,
        # so the FIFO is sorted by arrival tick.  Every architecture must
        # keep stepping on each core edge while it is non-empty: the step
        # lands the due entries before its first stage (what a per-flit
        # event at EPS_PIPELINE < EPS_STEP would do), at no engine event.
        self._core_fifo: Deque[Tuple[int, Flit, int, int]] = deque()

        self._step_scheduled = False
        self._step_wheel = simulator.wheel(EPS_STEP)
        self._finalized = False
        self._alloc_rotor = 0  # rotating start for VC allocation fairness
        # (port, vc) pairs whose input buffer holds at least one flit;
        # per-cycle stages scan only these instead of all ports x VCs.
        self._occupied_inputs: set = set()
        # (port, vc) pairs that *may* have a new packet at the buffer
        # front: fed by head-flit arrivals and tail pops, consumed by
        # _update_input_vcs, so the routing stage touches only inputs
        # with actual state changes instead of rescanning every cycle.
        self._route_pending: List[Tuple[int, int]] = []
        # Recycled by _update_input_vcs (per-event H001: the drained
        # list is reused instead of reallocated every routing pass).
        self._route_pending_spare: List[Tuple[int, int]] = []
        # (port, vc) pairs routed but not yet granted an output VC;
        # losers stay queued for the next allocation cycle.
        self._alloc_pending: List[Tuple[int, int]] = []

        # Hot-path dispatch: _wake/_step run once per arrival/cycle, so
        # the core-clock edge math is inlined for the ubiquitous
        # period-1/phase-0 clock instead of calling into Clock.
        self._core_period1 = core_clock.period == 1 and core_clock.phase == 0

        # Counters.
        self.flits_received = 0
        self.flits_sent = 0

    # -- construction-time wiring ------------------------------------------------

    def input_buffer_capacities(self, port: int) -> List[int]:
        return [self.input_queue_depth] * self.num_vcs

    def finalize(self) -> None:
        """Second construction phase, after the network wired and
        addressed this router: build routing engines and register the
        sensor's per-port capacities."""
        if self._finalized:
            raise RuntimeError(f"{self.full_name}: finalize() called twice")
        self._finalized = True
        for port in range(self.num_ports):
            if self.port_is_wired(port):
                self._routing[port] = self.routing_factory(self, port)
                tracker = self.output_credit_tracker(port)
                self.sensor.init_port(
                    port,
                    downstream_capacity=[
                        tracker.capacity(v) for v in range(tracker.num_vcs)
                    ],
                )
        self._finalize_arch()

    def _finalize_arch(self) -> None:
        """Architecture hook: register extra sensor sources, queues, ..."""

    def routing_algorithm(self, port: int) -> RoutingAlgorithm:
        algorithm = self._routing[port]
        if algorithm is None:
            raise RoutingError(f"{self.full_name}: input port {port} is not wired")
        return algorithm

    # -- congestion ---------------------------------------------------------------

    def congestion_status(self, port: int, vc: int) -> float:
        """The (delayed) congestion value routing engines consult."""
        return self.sensor.status(port, vc)

    # -- flit / credit reception -----------------------------------------------------

    def receive_flit(self, port: int, flit: Flit) -> None:
        self.flits_received += 1
        vc = flit.vc
        state = self._input_vcs[port][vc]
        buffer = state.buffer
        flits = buffer._flits
        if buffer._capacity is not None and len(flits) >= buffer._capacity:
            buffer.push(flit)  # raises BufferOverrunError with context
        flits.append(flit)
        self._occupied_inputs.add((port, vc))
        if flit.head or state.packet is None:
            # A new packet may now be at the buffer front (or a protocol
            # violation needs flagging); either way the routing stage
            # must look at this input.
            self._route_pending.append((port, vc))
        if not self._step_scheduled:
            self._wake()

    def receive_credit(self, port: int, credit: Credit) -> None:
        vc = credit.vc
        # Trackers are wired before the first credit can arrive; the
        # give() call itself stays (CreditSan patches it).
        self._output_credits[port].give(vc)
        self.sensor.record(SOURCE_DOWNSTREAM, port, vc, -1)
        if not self._step_scheduled:
            self._wake()

    def send_flit_out(self, port: int, flit: Flit) -> None:
        """Transmit downstream, consuming a credit and notifying the sensor."""
        # Inlined PortedDevice.send_flit: the take-then-send order is the
        # contract CreditSan's conservation check relies on.
        vc = flit.vc
        self._output_credits[port].take(vc)
        self._flit_out[port].send_flit(flit)
        self.sensor.record(SOURCE_DOWNSTREAM, port, vc, +1)
        self.flits_sent += 1

    # -- stepping --------------------------------------------------------------------

    def _wake(self) -> None:
        if self._step_scheduled:
            return
        self._step_scheduled = True
        simulator = self.simulator
        tick = simulator.tick
        if self._core_period1:
            if simulator.epsilon >= EPS_STEP:
                tick += 1
        else:
            tick = self.core_clock.next_edge(tick)
            if tick == simulator.tick and simulator.epsilon >= EPS_STEP:
                tick = self.core_clock.following_edge(tick)
        self._step_wheel.add(tick, self._step)

    def _step(self, event: Event) -> None:
        self._step_scheduled = False
        if self._core_fifo:
            self._land_core_arrivals()
        self._step_cycle()
        if self._has_work():
            self._step_scheduled = True
            simulator = self.simulator
            if self._core_period1:
                tick = simulator.tick + 1
            else:
                tick = self.core_clock.following_edge(simulator.tick)
            self._step_wheel.add(tick, self._step)

    def _land_core_arrivals(self) -> None:
        """Move every flit whose core traversal is over (arrival tick
        ``<= now``, which also covers ``core_latency = 0`` and core
        clocks slower than the tick) into its output stage."""
        fifo = self._core_fifo
        now = self.simulator.tick
        land = self._land
        while fifo and fifo[0][0] <= now:
            _arrival, flit, out_port, out_vc = fifo.popleft()
            land(flit, out_port, out_vc)

    def _land(self, flit: Flit, out_port: int, out_vc: int) -> None:
        """Architecture hook: a flit leaves the core for ``out_port``'s
        staging register / output queue."""
        raise NotImplementedError

    def _step_cycle(self) -> None:
        raise NotImplementedError

    def _has_work(self) -> bool:
        raise NotImplementedError

    # -- shared input-VC machinery ------------------------------------------------------

    def _update_input_vcs(self) -> None:
        """Route newly arrived head packets (front of each input VC).

        Only inputs flagged by head-flit arrivals or tail pops are
        examined (``_route_pending``); a streaming input never changes
        its front packet without one of those triggers.
        """
        pending = self._route_pending
        if not pending:
            return
        # Double-buffer: appends made while routing (tail releases in
        # the crossbar never overlap, but respond() hooks may retrigger)
        # land in the spare; the drained list becomes next call's spare.
        self._route_pending = self._route_pending_spare
        self._route_pending_spare = pending
        input_vcs = self._input_vcs
        for port, vc in pending:
            state = input_vcs[port][vc]
            flits = state.buffer._flits
            front = flits[0] if flits else None
            if front is None or state.packet is front.packet:
                continue
            if state.packet is not None:
                # The previous packet's tail has been popped but the
                # state was not reset -- a logic bug.
                raise RuntimeError(
                    f"{self.full_name}: input VC {port}.{vc} front changed "
                    f"while a packet was in flight"
                )
            if not front.head:
                raise RuntimeError(
                    f"{self.full_name}: non-head flit at front of an idle "
                    f"input VC {port}.{vc}: {front!r} (§IV-D order check)"
                )
            state.packet = front.packet
            algorithm = self._routing[port]
            if algorithm is None:
                raise RoutingError(
                    f"{self.full_name}: input port {port} is not wired"
                )
            state.candidates = algorithm.respond(front.packet, vc)
            state.allocated = False
            self._alloc_pending.append((port, vc))
        pending.clear()

    def _allocate_vcs(self) -> None:
        """Claim output VCs for routed packets (VC allocation stage).

        Each unallocated input VC requests its best *currently free*
        candidate; requests for the same (output port, VC) are resolved
        by that output VC's arbiter (the VC scheduler, configurable via
        the ``vc_scheduler.arbiter`` settings block -- round robin by
        default, age-based for parking-lot fairness, ...).  Losers try
        again next cycle.
        """
        pending = self._alloc_pending
        if not pending:
            return
        # Only inputs routed-but-unallocated live here: fed by the
        # routing stage, granted entries leave below, losers stay for
        # the next cycle.  Most cycles the list is empty and the whole
        # stage is one truth test.
        input_vcs = self._input_vcs
        routable = []
        for port, vc in pending:
            state = input_vcs[port][vc]
            if state.packet is None or state.allocated:
                continue
            routable.append((port, vc, state))
        if not routable:
            self._alloc_pending = []
            return
        owner_table = self._output_vc_owner
        admit = self._admit
        if len(routable) == 1:
            # One claimant: no arbitration possible; take the first free
            # candidate directly (identical to the general path below).
            port, vc, state = routable[0]
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
                self._on_vc_allocated(port, vc, state)
                self._alloc_pending = []
                return
            self._alloc_pending = [(port, vc)]
            return
        requests: Dict[Tuple[int, int], list] = {}
        for port, vc, state in routable:
            for out_port, out_vc in state.candidates:
                key = (out_port, out_vc)
                if key in owner_table:
                    continue
                if not admit(out_port, out_vc, state.packet):
                    continue
                requests.setdefault(key, []).append((port, vc, state))
                break  # one request per input VC per cycle
        if not requests:
            self._alloc_pending = [(port, vc) for port, vc, _ in routable]
            return
        now = self.simulator.tick
        num_vcs = self.num_vcs
        for key in sorted(requests):
            claimants = requests[key]
            if len(claimants) == 1:
                port, vc, state = claimants[0]
            else:
                arbiter = self._vc_arbiters.get(key)
                if arbiter is None:
                    arbiter = create_arbiter(
                        self._vc_arbiter_settings,
                        self.num_ports * num_vcs,
                    )
                    self._vc_arbiters[key] = arbiter
                flat = {
                    in_port * num_vcs + in_vc: (in_port, in_vc, in_state)
                    for in_port, in_vc, in_state in claimants
                }
                winner = arbiter.arbitrate(
                    [(index, entry[2].packet) for index, entry
                     in flat.items()],
                    now,
                )
                port, vc, state = flat[winner]
            out_port, out_vc = key
            owner_table[key] = (port, vc)
            state.allocated = True
            state.out_port = out_port
            state.out_vc = out_vc
            self._on_vc_allocated(port, vc, state)
        # Winners leave the queue; losers retry next cycle.
        self._alloc_pending = [
            (port, vc) for port, vc, state in routable if not state.allocated
        ]

    def _admit(self, out_port: int, out_vc: int, packet: Packet) -> bool:
        """Architecture hook: extra admission checks at VC allocation."""
        return True

    def _on_vc_allocated(self, port: int, vc: int, state: InputVcState) -> None:
        """Architecture hook: bookkeeping when a packet claims an output VC."""

    def _pop_input_flit(self, port: int, vc: int) -> Flit:
        """Dequeue the front flit, return its credit upstream, and manage
        ownership release at the tail."""
        state = self._input_vcs[port][vc]
        flits = state.buffer._flits
        flit = flits.popleft()  # IndexError on misuse, like FlitBuffer.pop
        empty = not flits
        if empty:
            self._occupied_inputs.discard((port, vc))
        flit.vc = state.out_vc
        # Via the public hook: subclasses (and fault-injection models)
        # override send_credit to intercept the upstream credit return.
        self.send_credit(port, vc)
        if flit.tail:
            owner_key = (state.out_port, state.out_vc)
            owner = self._output_vc_owner.get(owner_key)
            if owner != (port, vc):
                raise RuntimeError(
                    f"{self.full_name}: tail flit released VC {owner_key} "
                    f"owned by {owner}, expected ({port}, {vc})"
                )
            del self._output_vc_owner[owner_key]
            flit.packet.hop_count += 1
            state.reset()
            if not empty:
                # The next queued packet's head is now at the front.
                self._route_pending.append((port, vc))
        return flit

    def input_occupancy(self, port: int, vc: int) -> int:
        return self._input_vcs[port][vc].buffer.occupancy
