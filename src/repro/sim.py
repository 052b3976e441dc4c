"""Top-level simulation builder and results (the public entry point).

A full simulation configuration has three blocks::

    {
      "simulator": {"seed": 12345, "max_time": 200000},
      "network":   {"topology": "torus", ...},
      "workload":  {"applications": [{"type": "blast", ...}]}
    }

Typical use::

    from repro import Simulation, Settings

    settings = Settings.from_file("myconfig.json", overrides=sys.argv[2:])
    simulation = Simulation(settings)
    results = simulation.run()
    print(results.latency(application_id=0).summary())
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro import models
from repro.config.settings import Settings
from repro.config.spec import Block, KeySpec
from repro.core.rng import RandomManager
from repro.core.simulator import Simulator
from repro.net.network import Network
from repro.stats.latency import LatencyDistribution
from repro.stats.records import MessageLog
from repro.workload.workload import Workload


_MONITOR = {
    "period": KeySpec("uint", 0),
    "print": KeySpec("bool", False),
}

#: The ``simulator`` block.
SIMULATOR = {
    "seed": KeySpec("uint", 12345),
    "max_time": KeySpec("uint", None, minimum=1, allow_null=True),
    "monitor": Block(_MONITOR),
}

#: The ``output`` block, written by the command line tools.
OUTPUT = {
    "message_log": KeySpec("str", None),
    "summary": KeySpec("str", None),
}

_NETWORK = Block(Network, "topology", required=True)


class Simulation:
    """Builds the simulator, network, workload, and statistics.

    ``SETTINGS`` is the root of the configuration tree: every other
    declaration hangs below it.
    """

    SETTINGS = {
        "simulator": Block(SIMULATOR),
        "network": _NETWORK,
        "workload": Block(Workload, required=True),
        "output": Block(OUTPUT),
    }

    def __init__(self, settings: Settings):
        models.load_all()
        self.settings = settings
        sim_settings = settings.read(Simulation, "simulator")
        self.seed = sim_settings.read(SIMULATOR, "seed")
        self.default_max_time = sim_settings.read(SIMULATOR, "max_time")
        self.output = output_paths(settings)

        self.simulator = Simulator()
        self.random = RandomManager(self.seed)
        network_settings = settings.read(Simulation, "network")
        self.network: Network = _NETWORK.select(network_settings)(
            self.simulator,
            "network",
            None,
            network_settings,
            self.random,
        )
        self.message_log = MessageLog(self.network)
        self.workload = Workload(
            self.simulator,
            "workload",
            None,
            settings.read(Simulation, "workload"),
            self.network,
            self.random,
        )
        self.monitor = None
        monitor_settings = sim_settings.read(SIMULATOR, "monitor")
        period = monitor_settings.read(_MONITOR, "period")
        print_samples = monitor_settings.read(_MONITOR, "print")
        if period > 0:
            from repro.stats.monitor import ProgressMonitor

            self.monitor = ProgressMonitor(
                self.simulator,
                "monitor",
                self.network,
                period,
                print_samples=print_samples,
            )

    def run(
        self,
        max_time: Optional[int] = None,
        max_events: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> "SimulationResults":
        """Run to completion (empty event queue) or to a safety limit.

        A saturated network never drains on its own; always pass (or
        configure) ``max_time`` when sweeping into saturation.
        """
        if max_time is None:
            max_time = self.default_max_time
        self.simulator.run(
            max_time=max_time, max_events=max_events, max_seconds=max_seconds
        )
        return SimulationResults(self)


def output_paths(settings: Settings) -> Dict[str, Optional[str]]:
    """The ``output`` block's paths (None: not written)."""
    output = settings.read(Simulation, "output")
    return {key: output.read(OUTPUT, key) for key in OUTPUT}


class SimulationResults:
    """Post-run statistics over the message log and workload window."""

    def __init__(self, simulation: Simulation):
        self.simulation = simulation
        self.network = simulation.network
        self.workload = simulation.workload
        self.log = simulation.message_log

    # -- run health -------------------------------------------------------------

    @property
    def drained(self) -> bool:
        """Did the workload reach the draining phase (no saturation)?"""
        return self.workload.drained

    @property
    def end_tick(self) -> int:
        return self.simulation.simulator.tick

    @property
    def start_tick(self) -> Optional[int]:
        return self.workload.start_tick

    @property
    def stop_tick(self) -> Optional[int]:
        return self.workload.stop_tick

    # -- latency ------------------------------------------------------------------

    def records(self, application_id: Optional[int] = None, sampled_only: bool = True):
        records = self.log.records
        if application_id is not None:
            records = [r for r in records if r.application_id == application_id]
        if sampled_only:
            records = [r for r in records if r.sampled]
        return records

    def latency(
        self,
        application_id: Optional[int] = None,
        kind: str = "message",
        sampled_only: bool = True,
    ) -> LatencyDistribution:
        return LatencyDistribution.from_records(
            self.records(application_id, sampled_only), kind
        )

    # -- rates (flits per terminal per channel cycle) -----------------------------------

    def _window(self) -> Optional[int]:
        return self.workload.window_ticks()

    def offered_load(self, application_id: Optional[int] = None) -> float:
        """Sampled flits generated per terminal per channel cycle."""
        window = self._window()
        if not window:
            return float("nan")
        applications = self.workload.applications
        if application_id is not None:
            applications = [applications[application_id]]
        flits = sum(app.sampled_flits_created for app in applications)
        cycles = window / self.network.channel_period
        return flits / (self.network.num_terminals * cycles)

    def accepted_load(self) -> float:
        """Flits (any traffic) delivered during the sampling window,
        per terminal per channel cycle -- the throughput measure."""
        window = self._window()
        if not window:
            return float("nan")
        flits = self.log.flits_delivered_between(
            self.workload.start_tick, self.workload.stop_tick
        )
        cycles = window / self.network.channel_period
        return flits / (self.network.num_terminals * cycles)

    def delivered_fraction(self, application_id: Optional[int] = None) -> float:
        """Fraction of sampled messages that were delivered."""
        applications = self.workload.applications
        if application_id is not None:
            applications = [applications[application_id]]
        created = sum(app.sampled_created for app in applications)
        delivered = sum(app.sampled_delivered for app in applications)
        return delivered / created if created else float("nan")

    # -- summaries -----------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        latency = self.latency()
        return {
            "drained": self.drained,
            "end_tick": self.end_tick,
            "window": [self.start_tick, self.stop_tick],
            "offered_load": self.offered_load(),
            "accepted_load": self.accepted_load(),
            "delivered_fraction": self.delivered_fraction(),
            "latency": latency.summary() if not latency.empty else None,
            "events_executed": self.simulation.simulator.executed_events,
        }
