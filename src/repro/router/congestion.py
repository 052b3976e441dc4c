"""Congestion sensors (paper §VI-A, §VI-B).

A congestion sensor turns credit/occupancy information into the
congestion values consumed by adaptive routing algorithms.  Two aspects
of real hardware that high-level simulators routinely idealize are
modeled explicitly here:

* **Propagation latency.**  Congestion information computed inside the
  microarchitecture takes 5-20 cycles to reach all the input ports'
  routing engines.  The sensor therefore exposes a *delayed* view:
  changes recorded at tick T become visible at tick ``T + latency``.
  Case study A (§VI-A) sweeps this latency and shows throughput
  collapse on finite-queue routers.

* **Accounting style.**  The IOQ architecture can report congestion per
  VC or per port, and can count credits of the output queues, of the
  downstream (next-hop) queues, or both (§VI-B).  The six combinations
  are the subject of case study B.

The sensor is event-free: pending updates are kept in a FIFO (latency is
constant, so visibility order equals record order) and folded into the
visible counts lazily -- on every query, and from ``record()`` once the
FIFO passes ``PENDING_LIMIT`` entries, so a sensor nothing ever queries
(dimension-order routing) holds a bounded FIFO rather than one entry per
recorded flit-hop.  Folding early is exact: what is visible at tick T
depends only on records due at or before T.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro import factory
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

#: Normalization depth used for infinite queues (see CreditSensor._value_for).
_INFINITE_REFERENCE_DEPTH = 64.0

#: FIFO length past which ``record()`` folds the entries already due.
#: Entries younger than the propagation latency cannot be folded, so the
#: FIFO holds at most this many plus the records of ``latency`` ticks.
PENDING_LIMIT = 64


class CongestionSensor(Component):
    """Abstract congestion sensor API."""

    def __init__(self, simulator, name, parent, num_ports: int, num_vcs: int):
        super().__init__(simulator, name, parent)
        self.num_ports = num_ports
        self.num_vcs = num_vcs

    def init_port(
        self,
        port: int,
        output_capacity: Optional[List[int]] = None,
        downstream_capacity: Optional[List[int]] = None,
    ) -> None:
        """Declare the credit capacities backing ``port``'s values."""
        raise NotImplementedError

    def record(self, source: str, port: int, vc: int, delta: int) -> None:
        """Record an occupancy change (+1 flit entered, -1 left)."""
        raise NotImplementedError

    def status(self, port: int, vc: int) -> float:
        """The congestion value routing algorithms see *now*.

        Values are occupancy fractions in ``[0, 1]`` (or unbounded raw
        flit counts for infinite queues), aggregated per the configured
        granularity and source.  Higher means more congested.
        """
        raise NotImplementedError


@factory.register(CongestionSensor, "credit")
class CreditSensor(CongestionSensor):
    """The packaged credit-counting sensor.

    Settings:
        ``latency`` -- propagation delay in ticks before a recorded
            change becomes visible (default 1).
        ``granularity`` -- ``"vc"`` or ``"port"`` (default ``"vc"``).
        ``source`` -- ``"output"``, ``"downstream"``, or ``"both"``
            (default ``"downstream"``).
    """

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        parent: Component,
        num_ports: int,
        num_vcs: int,
        settings: "Settings",
    ):
        super().__init__(simulator, name, parent, num_ports, num_vcs)
        self.latency = settings.get_uint("latency", 1)
        self.granularity = settings.get_str("granularity", GRANULARITY_VC)
        if self.granularity not in (GRANULARITY_VC, GRANULARITY_PORT):
            raise ValueError(f"bad congestion granularity {self.granularity!r}")
        self.source = settings.get_str("source", SOURCE_DOWNSTREAM)
        if self.source not in (SOURCE_OUTPUT, SOURCE_DOWNSTREAM, SOURCE_BOTH):
            raise ValueError(f"bad congestion source {self.source!r}")
        # Sources never queried under this configuration are not tracked:
        # their records are dropped on arrival (pure overhead otherwise).
        if self.source == SOURCE_BOTH:
            self._tracked = (SOURCE_OUTPUT, SOURCE_DOWNSTREAM)
        else:
            self._tracked = (self.source,)
        # Flat per-slot state: slot = _base[source] + port * num_vcs + vc,
        # tracked sources only.  _visible is the visible occupancy (None
        # until init_port declares the slot), _capacity the credit
        # capacity (None = infinite).
        self._base: Dict[str, int] = {
            source: index * num_ports * num_vcs
            for index, source in enumerate(self._tracked)
        }
        slots = len(self._tracked) * num_ports * num_vcs
        self._visible: List[Optional[int]] = [None] * slots
        self._capacity: List[Optional[int]] = [None] * slots
        # pending (visible_tick, slot, delta), FIFO by visible_tick
        self._pending: Deque[Tuple[int, int, int]] = deque()
        # Per-tick memo: visible values only change when pending entries
        # cross `now`, which cannot happen twice within one tick when the
        # propagation latency is >= 1, so repeated status() queries in the
        # same tick (adaptive routing fans over many ports) hit the cache.
        self._memo_tick = -1
        self._memo: Dict[Tuple[int, int], float] = {}
        # Hoisted query iterables: _status_uncached runs on the routing
        # hot path (adaptive algorithms fan over every port), so the
        # source list and the per-granularity VC views are built once
        # here instead of per call (per-event H001/H003).
        if self.granularity == GRANULARITY_PORT:
            self._vc_views: Tuple[Tuple[int, ...], ...] = tuple(
                tuple(range(num_vcs)) for _ in range(num_vcs)
            )
        else:
            self._vc_views = tuple((v,) for v in range(num_vcs))

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
                self._capacity[first + vc] = cap

    # -- updates -----------------------------------------------------------------

    def record(self, source: str, port: int, vc: int, delta: int) -> None:
        base = self._base.get(source)
        if base is None:
            return
        num_vcs = self.num_vcs
        slot = base + port * num_vcs + vc
        if not (0 <= vc < num_vcs and 0 <= port < self.num_ports) \
                or self._visible[slot] is None:
            raise KeyError(
                f"{self.full_name}: record for uninitialized "
                f"{(source, port, vc)}"
            )
        pending = self._pending
        pending.append((self.simulator.tick + self.latency, slot, delta))
        if len(pending) > PENDING_LIMIT:
            self._drain()

    def _drain(self) -> None:
        now = self.simulator.tick
        pending = self._pending
        visible = self._visible
        while pending and pending[0][0] <= now:
            _tick, slot, delta = pending.popleft()
            visible[slot] += delta

    # -- queries ------------------------------------------------------------------

    def _value_for(self, source: str, port: int, vc: int) -> Tuple[float, float]:
        """(occupancy, capacity) for one key; capacity 0 when untracked."""
        slot = self._base[source] + port * self.num_vcs + vc
        occupancy = self._visible[slot]
        if occupancy is None:
            return (0.0, 0.0)
        occupancy = float(occupancy)
        capacity = self._capacity[slot]
        if capacity is None:
            # Infinite queue: normalize against a fixed reference depth so
            # values remain monotone in occupancy (they may exceed 1.0,
            # which is fine -- routing only compares relative magnitudes).
            return (occupancy, _INFINITE_REFERENCE_DEPTH)
        return (occupancy, float(capacity))

    def status(self, port: int, vc: int) -> float:
        if self.latency >= 1:
            now = self.simulator.tick
            if now != self._memo_tick:
                self._memo_tick = now
                self._memo.clear()
            cached = self._memo.get((port, vc))
            if cached is not None:
                return cached
        value = self._status_uncached(port, vc)
        if self.latency >= 1:
            self._memo[(port, vc)] = value
        return value

    def _status_uncached(self, port: int, vc: int) -> float:
        self._drain()
        sources = self._tracked
        vcs = self._vc_views[vc]
        occupancy = 0.0
        capacity = 0.0
        for source in sources:
            for v in vcs:
                occ, cap = self._value_for(source, port, v)
                occupancy += occ
                capacity += cap
        if capacity <= 0.0:
            return 0.0
        return occupancy / capacity

    def raw_occupancy(self, source: str, port: int, vc: int) -> int:
        """Undelayed *visible* flit count (after draining due updates)."""
        self._drain()
        base = self._base.get(source)
        if base is None:
            return 0
        return self._visible[base + port * self.num_vcs + vc] or 0
