"""Congestion sensors (paper §VI-A, §VI-B).

A congestion sensor turns credit/occupancy information into the
congestion values consumed by adaptive routing algorithms.  Two aspects
of real hardware that high-level simulators routinely idealize are
modeled explicitly here:

* **Propagation latency.**  Congestion information computed inside the
  microarchitecture takes 5-20 cycles to reach the routing decisions
  at all the input ports.  The sensor therefore exposes a *delayed* view:
  changes recorded at tick T become visible at tick ``T + latency``.
  Case study A (§VI-A) sweeps this latency and shows throughput
  collapse on finite-queue routers.

* **Accounting style.**  The IOQ architecture can report congestion per
  VC or per port, and can count credits of the output queues, of the
  downstream (next-hop) queues, or both (§VI-B).  The six combinations
  are the subject of case study B.

The sensor is event-free.  Its *delay line* is one FIFO ``_pending`` of
``(due_tick, slot, delta)`` entries (latency is constant, so visibility
order equals record order); a *slot* is one tracked (source, port, VC).
Routers resolve their slots once, at ``finalize`` (:meth:`slot`), and
append to the FIFO from their hot paths; an untracked source costs one
attribute test.  Entries fold into the visible counts lazily: on every
query, and once per router step when the FIFO has passed
``PENDING_LIMIT`` entries (``record()`` does the same for tests and
tools).  Folding early is exact: what is visible at tick T depends only
on entries due at or before T.  A sensor no routing engine reads
(``reads_congestion = False``, e.g. dimension-order routing) is not fed
at all: it holds nothing, and a query raises :class:`UnfedSensorError`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro import factory
from repro.config.spec import Block, KeySpec
from repro.core.component import Component

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.settings import Settings
    from repro.core.simulator import Simulator

#: Which credit pools feed the congestion value.
SOURCE_OUTPUT = "output"
SOURCE_DOWNSTREAM = "downstream"
SOURCE_BOTH = "both"

#: Reporting granularity.
GRANULARITY_VC = "vc"
GRANULARITY_PORT = "port"

#: Normalization depth used for infinite queues (see CreditSensor.init_port).
_INFINITE_REFERENCE_DEPTH = 64.0

#: FIFO length past which a router step (or ``record()``) folds the
#: entries already due: the FIFO holds at most this many plus the
#: records of ``latency`` ticks.
PENDING_LIMIT = 64


class UnfedSensorError(RuntimeError):
    """Raised when a sensor its router does not feed is queried."""


class CongestionSensor(Component):
    """Congestion sensor API around the delay line ``_pending``.

    Settings:
        ``latency`` -- propagation delay in ticks before a recorded
            change becomes visible.
        ``granularity`` -- per ``"vc"`` or per ``"port"``.
        ``source`` -- which credits count: ``"output"``,
            ``"downstream"``, or ``"both"``.
    """

    SETTINGS = {
        "latency": KeySpec("uint", 1),
        "granularity": KeySpec("str", GRANULARITY_VC,
                               choices=(GRANULARITY_VC, GRANULARITY_PORT)),
        "source": KeySpec("str", SOURCE_DOWNSTREAM,
                          choices=(SOURCE_OUTPUT, SOURCE_DOWNSTREAM, SOURCE_BOTH)),
    }

    def __init__(self, simulator, name, parent, num_ports: int, num_vcs: int,
                 latency: int = 0):
        super().__init__(simulator, name, parent)
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self.latency = latency
        self._pending: Deque[Tuple[int, int, int]] = deque()

    def init_port(
        self,
        port: int,
        output_capacity: Optional[List[int]] = None,
        downstream_capacity: Optional[List[int]] = None,
    ) -> None:
        """Declare the credit capacities backing ``port``'s values."""
        raise NotImplementedError

    def slot(self, source: str, port: int, vc: int) -> Optional[int]:
        """The slot of one (source, port, VC); None when ``source`` is
        untracked, ``KeyError`` when :meth:`init_port` never declared it."""
        raise NotImplementedError

    def record(self, source: str, port: int, vc: int, delta: int) -> None:
        """Record an occupancy change (+1 flit entered, -1 left)."""
        slot = self.slot(source, port, vc)
        if slot is None:
            return
        pending = self._pending
        pending.append((self.simulator.tick + self.latency, slot, delta))
        if len(pending) > PENDING_LIMIT:
            self.fold()

    def fold(self) -> None:
        """Fold every entry due at or before now into the visible state."""
        raise NotImplementedError

    def mark_unfed(self) -> None:
        """Nothing feeds this sensor: its queries raise (per instance, so
        fed sensors pay no check)."""
        self.status = self.raw_occupancy = self._unfed

    def _unfed(self, *_args) -> float:
        raise UnfedSensorError(f"{self.full_name}: no engine of its router "
                               "reads_congestion, so nothing feeds it")

    def status(self, port: int, vc: int) -> float:
        """The congestion value routing algorithms see *now*.

        Values are occupancy fractions in ``[0, 1]`` (or unbounded raw
        flit counts for infinite queues), aggregated per the configured
        granularity and source.  Higher means more congested.
        """
        raise NotImplementedError


#: A congestion sensor settings block: ``type`` selects the model.
SENSOR = Block(CongestionSensor, "type", "credit")


@factory.register(CongestionSensor, "credit")
class CreditSensor(CongestionSensor):
    """The packaged credit-counting sensor."""

    SETTINGS = {}

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        parent: Component,
        num_ports: int,
        num_vcs: int,
        settings: "Settings",
    ):
        model = type(self)
        super().__init__(simulator, name, parent, num_ports, num_vcs,
                         settings.read(model, "latency"))
        self.granularity = settings.read(model, "granularity")
        self.source = settings.read(model, "source")
        # Sources never queried under this configuration have no slots.
        if self.source == SOURCE_BOTH:
            tracked: Tuple[str, ...] = (SOURCE_OUTPUT, SOURCE_DOWNSTREAM)
        else:
            tracked = (self.source,)
        # Flat per-slot state, slot = _base[source] + port * num_vcs + vc:
        # visible occupancy (None until declared) and float capacity.
        keys = num_ports * num_vcs
        self._base: Dict[str, int] = {
            source: index * keys for index, source in enumerate(tracked)
        }
        self._visible: List[Optional[int]] = [None] * (len(tracked) * keys)
        self._capacity: List[float] = [0.0] * (len(tracked) * keys)
        # Per key port * num_vcs + vc, the slots status() sums: every
        # tracked source, over the VC or (port granularity) the port.
        self._query: List[Tuple[int, ...]] = [
            tuple(
                base + port * num_vcs + v
                for base in self._base.values()
                for v in (range(num_vcs) if self.granularity == GRANULARITY_PORT
                          else (vc,))
            )
            for port in range(num_ports)
            for vc in range(num_vcs)
        ]
        # Per-key memo of the value at tick _memo_at[key]: with latency
        # >= 1 nothing recorded in a tick is visible in it (0: no memo).
        self._memo_at: List[int] = [-1] * keys
        self._memo: List[float] = [0.0] * keys

    # -- setup ----------------------------------------------------------------

    def init_port(
        self,
        port: int,
        output_capacity: Optional[List[int]] = None,
        downstream_capacity: Optional[List[int]] = None,
    ) -> None:
        for source, capacities in (
            (SOURCE_OUTPUT, output_capacity),
            (SOURCE_DOWNSTREAM, downstream_capacity),
        ):
            base = self._base.get(source)
            if capacities is None or base is None:
                continue
            if not 0 <= port < self.num_ports or len(capacities) > self.num_vcs:
                raise ValueError(
                    f"{self.full_name}: port {port} with {len(capacities)} "
                    f"VCs does not fit {self.num_ports} ports x "
                    f"{self.num_vcs} VCs"
                )
            first = base + port * self.num_vcs
            for vc, cap in enumerate(capacities):
                self._visible[first + vc] = 0
                # Infinite queues normalize against a reference depth.
                self._capacity[first + vc] = (
                    _INFINITE_REFERENCE_DEPTH if cap is None else float(cap)
                )

    def slot(self, source: str, port: int, vc: int) -> Optional[int]:
        base = self._base.get(source)
        if base is None:
            return None
        num_vcs = self.num_vcs
        slot = base + port * num_vcs + vc
        if not (0 <= vc < num_vcs and 0 <= port < self.num_ports) \
                or self._visible[slot] is None:
            raise KeyError(
                f"{self.full_name}: record for uninitialized "
                f"{(source, port, vc)}"
            )
        return slot

    def fold(self) -> None:
        now = self.simulator.tick
        pending = self._pending
        visible = self._visible
        while pending and pending[0][0] <= now:
            _due, slot, delta = pending.popleft()
            visible[slot] += delta  # type: ignore[operator]

    # -- queries ------------------------------------------------------------------

    def status(self, port: int, vc: int) -> float:
        now = self.simulator.tick
        key = port * self.num_vcs + vc
        if self._memo_at[key] == now:
            return self._memo[key]
        pending = self._pending
        if pending and pending[0][0] <= now:
            self.fold()
        visible = self._visible
        capacity = self._capacity
        occupancy = 0
        total = 0.0
        for slot in self._query[key]:
            count = visible[slot]
            if count is not None:  # an undeclared slot counts 0 of 0
                occupancy += count
                total += capacity[slot]
        value = occupancy / total if total > 0.0 else 0.0
        if self.latency:
            self._memo_at[key] = now
            self._memo[key] = value
        return value

    def raw_occupancy(self, source: str, port: int, vc: int) -> int:
        """Undelayed *visible* flit count (after folding due entries)."""
        self.fold()
        base = self._base.get(source)
        if base is None:
            return 0
        return self._visible[base + port * self.num_vcs + vc] or 0
