"""Channels: latency-bearing links between devices.

A channel moves one item (a flit or a credit) from a source device port
to a sink device port after a fixed latency.  Flit channels additionally
enforce a bandwidth of one flit per channel-clock cycle -- the *phit*
rate.  Credit channels carry the reverse credit flow with the same
latency; multiple credits (for different VCs) may share a cycle, which
models the credit piggybacking used by real links.

High channel latency is a defining property of large-scale networks
(paper §I): a 10 m cable at ~5 ns/m is 50 ns, i.e. tens of flit times in
flight.  The channel keeps an utilization count so analyses can report
channel load.

Delivery is *coalesced* and *phase-driven* (see ``docs/PERFORMANCE.md``):
each channel keeps an in-flight FIFO of ``(due_tick, item)`` pairs and is
registered on its simulator's landing wheel (:class:`_LandingWheel`, the
``EPS_DELIVER`` :class:`~repro.core.wheel.PhaseWheel`) for the head
item's due tick (``_head_due``; -1 = not registered).  The wheel's one
engine event per busy tick drains every registered channel's items due
now, in registration order, and re-registers the channel for its next
due tick.  Dues are nondecreasing by construction -- simulation time is
monotone and the latency per channel is fixed -- so the FIFO never
needs sorting.  The engine sees O(busy ticks) landing events for the
whole network, and every per-item hook (sanitizers, delivery digests,
the sharded runtime's ingress landing) attaches to ``_deliver_item``.
The FIFO, the wheel registration and the sink wiring are identical for
flits and credits and live in :class:`_Link`; :class:`Channel` and
:class:`CreditChannel` add their own ``send_*`` and ``_deliver_item``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.core.component import Component
from repro.core.wheel import PhaseWheel
from repro.net.credit import Credit
from repro.net.flit import Flit
from repro.net.phases import EPS_DELIVER

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simulator import Simulator
    from repro.net.device import PortedDevice


class ChannelError(RuntimeError):
    """Raised on channel protocol violations (overdriving, no sink)."""


class _LandingWheel(PhaseWheel):
    """The ``EPS_DELIVER`` phase: registrants are links, and the wheel
    drains their FIFOs in its own loop (a per-link method call here
    measured 5-7 % of ``flit_hops_per_s``)."""

    __slots__ = ()

    def _drain(self, links, event) -> None:
        now = event.tick
        add = self.add
        for link in links:
            inflight = link._inflight
            deliver_item = link._deliver_item
            while inflight and inflight[0][0] == now:
                deliver_item(inflight.popleft()[1])
            if inflight:
                due = link._head_due = inflight[0][0]
                add(due, link)
            else:
                link._head_due = -1


class _Link(Component):
    """What flit and credit links share: latency, sink wiring and the
    coalesced in-flight FIFO with its landing-wheel registration."""

    #: True on channels cut by a shard partition: the sharded runtime
    #: (:mod:`repro.partition.runtime`) replaces one endpoint with a
    #: proxy (egress serializes sends onto IPC; ingress lands records
    #: through ``_deliver_item``), so per-link invariant checkers that
    #: need both endpoints (CreditSan) must skip these links.  Always
    #: False in single-process simulation.
    shard_proxy = False

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        parent: Optional[Component],
        latency: int,
    ):
        super().__init__(simulator, name, parent)
        if latency < 1:
            raise ValueError(f"channel latency must be >= 1 tick, got {latency}")
        self.latency = latency
        self._sink: Optional["PortedDevice"] = None
        self._sink_port: Optional[int] = None
        # FIFO of (due_tick, item) plus the tick this link is registered
        # on the landing wheel for (-1 = not registered).
        self._inflight = deque()
        self._head_due = -1
        self._wheel = simulator.wheel(EPS_DELIVER, _LandingWheel)

    def connect_sink(self, sink: "PortedDevice", port: int) -> None:
        if self._sink is not None:
            raise ChannelError(f"{self.full_name}: sink already connected")
        self._sink = sink
        self._sink_port = port

    @property
    def sink(self) -> Optional["PortedDevice"]:
        return self._sink

    @property
    def sink_port(self) -> Optional[int]:
        return self._sink_port

    def inflight_items(self) -> int:
        """Items currently on the wire."""
        return len(self._inflight)

    def _launch(self, due: int, item) -> None:
        """Put ``item`` on the wire, to land at tick ``due`` (sends, and
        the sharded ingress for records that crossed a cut)."""
        self._inflight.append((due, item))
        if self._head_due < 0:
            self._head_due = due
            self._wheel.add(due, self)

    def _deliver_item(self, item) -> None:
        """Hand one landed item to the sink (sanitizer hookpoint)."""
        raise NotImplementedError


class Channel(_Link):
    """A unidirectional flit link with latency and one-flit-per-cycle pacing."""

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        parent: Optional[Component],
        latency: int,
        period: int = 1,
    ):
        super().__init__(simulator, name, parent, latency)
        if period < 1:
            raise ValueError(f"channel period must be >= 1 tick, got {period}")
        self.period = period
        self._next_free_tick = 0
        self.flits_carried = 0

    def can_send(self) -> bool:
        """True when the channel is free this cycle."""
        return self.simulator.tick >= self._next_free_tick

    def next_send_tick(self) -> int:
        """Earliest tick at which the channel accepts the next flit."""
        return max(self._next_free_tick, self.simulator.tick)

    def send_flit(self, flit: Flit) -> None:
        """Transmit ``flit``; it arrives at the sink after ``latency``."""
        if self._sink is None:
            raise ChannelError(f"{self.full_name}: no sink connected")
        now = self.simulator.tick
        if now < self._next_free_tick:
            raise ChannelError(
                f"{self.full_name}: overdriven -- busy until {self._next_free_tick}, "
                f"send attempted at {now}"
            )
        self._next_free_tick = now + self.period
        self.flits_carried += 1
        self._launch(now + self.latency, flit)

    def _deliver_item(self, flit: Flit) -> None:
        """Hand one landed flit to the sink (sanitizer hookpoint)."""
        self._sink.receive_flit(self._sink_port, flit)

    def utilization(self, window_ticks: int) -> float:
        """Flits carried per channel cycle over ``window_ticks``."""
        if window_ticks <= 0:
            return 0.0
        cycles = window_ticks / self.period
        return self.flits_carried / cycles


class CreditChannel(_Link):
    """A unidirectional credit link with latency (no pacing).

    Several credits may be sent within one tick (different VCs of the
    same link free slots in the same cycle); all of them land in the
    same landing phase.
    """

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        parent: Optional[Component],
        latency: int,
    ):
        super().__init__(simulator, name, parent, latency)
        self.credits_carried = 0

    def send_credit(self, credit: Credit) -> None:
        if self._sink is None:
            raise ChannelError(f"{self.full_name}: no sink connected")
        self.credits_carried += 1
        self._launch(self.simulator.tick + self.latency, credit)

    def _deliver_item(self, credit: Credit) -> None:
        """Hand one landed credit to the sink (sanitizer hookpoint)."""
        self._sink.receive_credit(self._sink_port, credit)
