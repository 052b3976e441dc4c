"""Progress monitoring.

Long simulations need visibility: the monitor samples simulation state
on a fixed tick period and keeps a history of (tick, executed events,
delivered flits, wall seconds).  The CLI's ``--progress`` flag prints
each sample; programmatic users read ``history`` or register a
callback.  This mirrors the periodic info logging of the original
simulator's runtime output.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional

from repro.core.component import Component
from repro.core.event import Event
from repro.net.phases import EPS_MONITOR

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simulator import Simulator
    from repro.net.network import Network


class ProgressSample(NamedTuple):
    tick: int
    executed_events: int
    flits_ejected: int
    wall_seconds: float


class ProgressMonitor(Component):
    """Samples simulation progress every ``period`` ticks."""

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        network: "Network",
        period: int,
        callback: Optional[Callable[[ProgressSample], None]] = None,
        print_samples: bool = False,
    ):
        super().__init__(simulator, name, None)
        if period < 1:
            raise ValueError(f"monitor period must be >= 1, got {period}")
        self.network = network
        self.period = period
        self.callback = callback
        self.print_samples = print_samples
        self.history: List[ProgressSample] = []
        self._start_wall = time.monotonic()
        self.schedule_at(self._sample, period, epsilon=EPS_MONITOR)

    def _sample(self, event: Event) -> None:
        sample = ProgressSample(
            tick=self.simulator.tick,
            executed_events=self.simulator.executed_events,
            flits_ejected=sum(
                interface.flits_ejected for interface in self.network.interfaces
            ),
            wall_seconds=time.monotonic() - self._start_wall,
        )
        self.history.append(sample)
        if self.callback is not None:
            self.callback(sample)
        if self.print_samples:
            rate = sample.flits_ejected / max(sample.wall_seconds, 1e-9)
            print(
                f"[progress] tick={sample.tick} "
                f"events={sample.executed_events} "
                f"flits={sample.flits_ejected} "
                f"({rate / 1000:.1f}k flits/s)"
            )
        # Keep sampling only while other work remains: if the monitor is
        # the only event source left, the queue would never drain.
        # Cancelled entries (a killed terminal's far-future injection)
        # are not work.
        if self.simulator.pending_events > 0:
            self.schedule(self._sample, self.period, epsilon=EPS_MONITOR)

    def event_rate(self) -> float:
        """Mean executed *engine* events per wall second so far: phases
        (:mod:`repro.core.wheel` runs all landings of a tick from one
        event, all steps from another), not handler calls."""
        if not self.history:
            return 0.0
        last = self.history[-1]
        return last.executed_events / max(last.wall_seconds, 1e-9)

    def delivery_rate(self) -> float:
        """Flits ejected per simulated tick over the sampled span."""
        if not self.history:
            return 0.0
        last = self.history[-1]
        return last.flits_ejected / max(last.tick, 1)
