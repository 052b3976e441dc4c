"""Router base class.

All three packaged router microarchitectures (OQ, IQ, IOQ -- paper
§IV-C) derive from :class:`Router`, which provides the structure they
share:

* the input side as flat per-router lists indexed by input VC
  ``i = port * num_vcs + vc``: each VC's flit deque, front packet,
  route candidates and allocated output VC, with a credit-returning
  pop,
* one routing engine, built by the Network and handed over at
  ``finalize``, that decides for every input port (§IV-B),
* the input-VC state machine: route at the packet head, claim an
  output VC, stream, release at the tail,
* the output side as flat per-router lists indexed by output VC
  ``o = port * num_vcs + vc``: the device's credits, output VC
  ownership (wormhole: one packet streams on a given output VC at a
  time), the sensor slots and, where VCs are allocated (IQ, IOQ), the
  VC scheduler's arbiter with one slot per output VC,
* a congestion sensor fed through its delay line: slots resolved at
  ``finalize``, ``(due, slot, delta)`` appended by the hot paths -- only
  when the router's routing engine reads congestion,
* the in-core pipeline FIFO: flits traversing the core for
  ``core_latency`` ticks wait in one per-router FIFO that the step
  drains, not in one engine event each,
* per-core-cycle stepping with sleep/wake: an awake router registers
  its ``_step`` on the simulator's ``EPS_STEP`` phase wheel
  (:mod:`repro.core.wheel`) for its next core edge -- one engine event
  steps every awake router of a tick -- and an idle one registers
  nothing.

Each architecture implements ``_step``, one core-clock cycle as flat
per-phase code (land -> drain -> route -> allocate/move -> fold the
sensor -> reschedule), from the stages shared here and its own.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.config.spec import Block, KeySpec
from repro.core.clock import Clock
from repro.core.component import Component
from repro.core.event import Event
from repro.net.buffer import BufferOverrunError
from repro.net.credit import Credit
from repro.net.device import PortedDevice
from repro.net.flit import Flit
from repro.net.packet import Packet
from repro.net.phases import EPS_STEP
from repro.router.arbiter import ARBITER, Arbiter, create_arbiter
from repro.router.congestion import SENSOR, SOURCE_DOWNSTREAM, CongestionSensor
from repro.router.crossbar_scheduler import CrossbarScheduler
from repro.routing.base import RoutingAlgorithm

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.settings import Settings
    from repro.core.rng import RandomManager
    from repro.core.simulator import Simulator


_VC_SCHEDULER = {"arbiter": ARBITER}


class Router(PortedDevice):
    """Abstract router; concrete architectures register with the factory.

    Common settings (each architecture adds its own):
        ``input_queue_depth`` -- per-VC input buffer capacity in flits.
        ``core_latency`` -- crossbar / queue-to-queue traversal latency
            in ticks.
        ``congestion_sensor`` -- sub-block for the sensor model
            (``type`` defaults to ``"credit"``).
        ``vc_scheduler.arbiter`` -- the VC allocation arbiter of the
            architectures that allocate VCs (IQ, IOQ).
    """

    SETTINGS = {
        "input_queue_depth": KeySpec("uint", 16, minimum=1),
        "core_latency": KeySpec("uint", 1),
        "congestion_sensor": SENSOR,
        "vc_scheduler": Block(_VC_SCHEDULER),
    }

    #: One fused core-clock cycle, defined by each architecture.
    _step: Callable[[Event], None]

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        parent: Optional[Component],
        router_id: int,
        num_ports: int,
        num_vcs: int,
        settings: "Settings",
        core_clock: Clock,
        channel_clock: Clock,
    ):
        super().__init__(simulator, name, parent, num_ports, num_vcs)
        self.router_id = router_id
        self.settings = settings
        self.core_clock = core_clock
        self.channel_clock = channel_clock
        self.address: Optional[Tuple[int, ...]] = None  # set by the network
        # The network's named random streams: a random arbiter draws from
        # one per router, role and slot.
        self.random: "RandomManager" = parent.random  # type: ignore[union-attr]

        model = type(self)
        self.input_queue_depth = settings.read(model, "input_queue_depth")
        self.core_latency = settings.read(model, "core_latency")

        # The input side, one entry per input VC i = port * num_vcs + vc:
        # its flits (at most input_queue_depth), the packet at the front
        # once routed, that packet's route candidates and the output VC
        # it claimed (-1 while unallocated).
        num_inputs = num_ports * num_vcs
        self._in_flits: List[Deque[Flit]] = [deque() for _ in range(num_inputs)]
        self._in_packet: List[Optional[Packet]] = [None] * num_inputs
        self._in_candidates: List[Sequence[Tuple[int, int]]] = [()] * num_inputs
        self._in_out_port: List[int] = [-1] * num_inputs
        self._in_out_vc: List[int] = [-1] * num_inputs

        # The routing engine, handed over by finalize().
        self.routing: Optional[RoutingAlgorithm] = None

        # The output side, one entry per output VC o = port * num_vcs + vc
        # (as many as input VCs; the credits are the device's): the
        # input VC owning it (-1: free; wormhole ownership).
        self._output_vc_owner: List[int] = [-1] * num_inputs

        # Congestion sensor.
        sensor_settings = settings.read(model, "congestion_sensor")
        self.sensor: CongestionSensor = SENSOR.select(sensor_settings)(
            simulator, "sensor", self, num_ports, num_vcs, sensor_settings)
        # The sensor's delay line; _down_slots[o] is output VC o's
        # downstream source slot, resolved at finalize (None: not tracked).
        self._sensed = self.sensor._pending
        self._sense_latency = self.sensor.latency
        self._down_slots: Optional[List[Optional[int]]] = None

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
        # Input VCs holding at least one flit; per-cycle stages scan only
        # these instead of all ports x VCs.
        self._occupied_inputs: Set[int] = set()
        # Input VCs that *may* have a new packet at the buffer front:
        # fed by head-flit arrivals and tail pops, consumed by
        # _update_input_vcs, so the routing stage touches only inputs
        # with actual state changes instead of rescanning every cycle.
        self._route_pending: List[int] = []
        # Recycled by _update_input_vcs: the drained list is reused
        # instead of reallocated every routing pass (no per-event
        # list garbage).
        self._route_pending_spare: List[int] = []
        # Input VCs routed but not yet granted an output VC; losers stay
        # queued for the next allocation cycle.
        self._alloc_pending: List[int] = []

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

    def finalize(self, routing: RoutingAlgorithm) -> None:
        """Second construction phase, after the network wired and
        addressed this router: take its routing engine and register the
        sensor's per-port capacities."""
        if self._finalized:
            raise RuntimeError(f"{self.full_name}: finalize() called twice")
        self._finalized = True
        self.routing = routing
        num_vcs = self.num_vcs
        for port in range(self.num_ports):
            if self.port_is_wired(port):
                first = port * num_vcs
                self.sensor.init_port(
                    port,
                    downstream_capacity=self._credit_capacity[
                        first:first + num_vcs],
                )
        if not routing.reads_congestion:
            self.sensor.mark_unfed()
        self._finalize_arch()
        self._down_slots = self._sensor_slots(SOURCE_DOWNSTREAM)

    def _build_schedulers(self) -> None:
        """Build the crossbar scheduler and the VC scheduler's arbiter (a
        slot per output VC) of the routers that call ``_allocate_vcs``."""
        settings, name, num_vcs = self.settings, self.full_name, self.num_vcs
        model = type(self)
        self.scheduler = CrossbarScheduler(
            self, settings.read(model, "crossbar_scheduler"), self.random,
            f"{name}.crossbar")
        num_outputs = self.num_ports * num_vcs
        self._vc_arbiter: Arbiter = create_arbiter(
            settings.read(model, "vc_scheduler").read(_VC_SCHEDULER, "arbiter"),
            num_outputs, num_outputs, self.random,
            lambda o: f"{name}.vc_scheduler.out{o // num_vcs}.vc{o % num_vcs}")

    def _finalize_arch(self) -> None:
        """Architecture hook: register extra sensor sources, queues, ..."""

    def _sensor_slots(self, source: str) -> Optional[List[Optional[int]]]:
        """Per output VC, its sensor slot for ``source`` (None on an
        unwired port, ``KeyError`` for an undeclared one); None when
        untracked or when the engine does not read the sensor, so the
        hot paths feed nothing."""
        sensor = self.sensor
        slots: List[Optional[int]] = []
        for port in range(self.num_ports):
            wired = self.port_is_wired(port)
            for vc in range(self.num_vcs):
                slots.append(sensor.slot(source, port, vc) if wired else None)
        tracked = any(slot is not None for slot in slots)
        return slots if tracked and self.routing.reads_congestion else None

    # -- flit / credit reception -----------------------------------------------------

    def receive_flit(self, port: int, flit: Flit) -> None:
        self.flits_received += 1
        vc = flit.vc
        i = port * self.num_vcs + vc
        flits = self._in_flits[i]
        if len(flits) >= self.input_queue_depth:
            raise BufferOverrunError(
                f"{self.full_name}.in{port}.vc{vc}: buffer overrun "
                f"(capacity {self.input_queue_depth})"
            )
        flits.append(flit)
        self._occupied_inputs.add(i)
        if flit.head or self._in_packet[i] is None:
            # A new packet may now be at the buffer front (or a protocol
            # violation needs flagging); either way the routing stage
            # must look at this input.
            self._route_pending.append(i)
        if not self._step_scheduled:
            self._wake()

    def receive_credit(self, port: int, credit: Credit) -> None:
        vc = credit.vc
        o = port * self.num_vcs + vc
        # Inlined give_credit: a landed credit is an increment.
        credits = self._credits
        if credits[o] >= self._credit_capacity[o]:
            self.give_credit(port, vc)  # raises CreditError with context
        credits[o] += 1
        slots = self._down_slots
        if slots is not None:
            self._sensed.append(
                (self.simulator.tick + self._sense_latency, slots[o], -1)
            )
        if not self._step_scheduled:
            self._wake()

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
        in_flits = self._in_flits
        in_packet = self._in_packet
        in_candidates = self._in_candidates
        alloc_pending = self._alloc_pending
        respond = self.routing.respond
        num_vcs = self.num_vcs
        for i in pending:
            flits = in_flits[i]
            if not flits:
                continue
            front = flits[0]
            packet = in_packet[i]
            if packet is front.packet:
                continue
            if packet is not None:
                # The previous packet's tail has been popped but the
                # input was not reset -- a logic bug.
                raise RuntimeError(
                    f"{self.full_name}: input VC {i // num_vcs}.{i % num_vcs} "
                    f"front changed while a packet was in flight"
                )
            if not front.head:
                raise RuntimeError(
                    f"{self.full_name}: non-head flit at front of an idle "
                    f"input VC {i // num_vcs}.{i % num_vcs}: {front!r} "
                    f"(§IV-D order check)"
                )
            packet = in_packet[i] = front.packet
            in_candidates[i] = respond(packet, i // num_vcs, i % num_vcs)
            alloc_pending.append(i)
        pending.clear()

    def _allocate_vcs(self) -> None:
        """Claim output VCs for routed packets (VC allocation stage).

        Each unallocated input VC requests its best *currently free*
        candidate; requests for the same output VC are resolved by that
        output VC's arbiter (the VC scheduler, configurable via
        the ``vc_scheduler.arbiter`` settings block -- round robin by
        default, age-based for parking-lot fairness, ...), at its slot
        ``o``.  Losers try again next cycle.
        """
        pending = self._alloc_pending
        if not pending:
            return
        # Only inputs routed-but-unallocated live here: fed by the
        # routing stage, granted entries leave below, losers stay for
        # the next cycle.  Most cycles the list is empty and the whole
        # stage is one truth test.
        in_packet = self._in_packet
        in_candidates = self._in_candidates
        in_out_port = self._in_out_port
        in_out_vc = self._in_out_vc
        owner_table = self._output_vc_owner
        num_vcs = self.num_vcs
        routable = []
        requests: Dict[int, List[int]] = {}
        for i in pending:
            if in_packet[i] is None or in_out_port[i] >= 0:
                continue
            routable.append(i)
            for out_port, out_vc in in_candidates[i]:
                o = out_port * num_vcs + out_vc
                if owner_table[o] >= 0:
                    continue
                claimants = requests.get(o)
                if claimants is None:
                    requests[o] = [i]
                else:
                    claimants.append(i)
                break  # one request per input VC per cycle
        pending.clear()
        now = self.simulator.tick
        for o in sorted(requests):
            claimants = requests[o]
            out_port, out_vc = divmod(o, num_vcs)
            if len(claimants) == 1:
                i = claimants[0]
            else:
                i = self._vc_arbiter.arbitrate(
                    o, [(c, in_packet[c]) for c in claimants], now)
            owner_table[o] = i
            in_out_port[i] = out_port
            in_out_vc[i] = out_vc
        # Winners leave the queue; losers retry next cycle.
        for i in routable:
            if in_out_port[i] < 0:
                pending.append(i)

    def _pop_input_flit(self, i: int) -> Flit:
        """Dequeue input VC ``i``'s front flit, return its credit
        upstream, count the hop at the head and release the output VC
        at the tail."""
        flits = self._in_flits[i]
        flit = flits.popleft()  # IndexError when the input VC is empty
        empty = not flits
        if empty:
            self._occupied_inputs.discard(i)
        out_port = self._in_out_port[i]
        out_vc = flit.vc = self._in_out_vc[i]
        # Via the public hook: subclasses (and fault-injection models)
        # override send_credit to intercept the upstream credit return.
        num_vcs = self.num_vcs
        self.send_credit(i // num_vcs, i % num_vcs)
        if flit.head:
            flit.packet.hop_count += 1
        if flit.tail:
            owners = self._output_vc_owner
            o = out_port * num_vcs + out_vc
            if owners[o] != i:
                raise RuntimeError(
                    f"{self.full_name}: tail flit of input VC "
                    f"{i // num_vcs}.{i % num_vcs} released output VC "
                    f"{out_port}.{out_vc} owned by input VC {owners[o]}"
                )
            owners[o] = -1
            self._in_packet[i] = None
            self._in_candidates[i] = ()
            self._in_out_port[i] = -1
            self._in_out_vc[i] = -1
            if not empty:
                # The next queued packet's head is now at the front.
                self._route_pending.append(i)
        return flit

    def input_occupancy(self, port: int, vc: int) -> int:
        return len(self._in_flits[port * self.num_vcs + vc])
