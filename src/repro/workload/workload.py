"""The Workload state machine (paper §IV-A, Fig. 4).

The Workload monitors and controls the execution of all Applications
through a handshake protocol defining four phases:

1. **Warming** -- applications prepare the network (or immediately
   signal Ready if they have no warming to do).
2. **Generating** -- entered when all applications are Ready and the
   Workload broadcasts Start; the primary sampled-traffic window.
3. **Finishing** -- entered when all applications are Complete and the
   Workload broadcasts Stop; roll-over traffic that still needs to be
   sampled drains here.
4. **Draining** -- entered when all applications are Done and the
   Workload broadcasts Kill; no new traffic is generated, the network
   empties, the event queue runs dry, and the simulation ends.

The four-phase split (versus the classic warm/sample/drain) lets
multiple applications interoperate without being designed for each
other: Blast can Complete immediately while Pulse keeps generating.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.config.spec import Block
from repro.core.component import Component
from repro.core.event import Event
from repro.net.phases import EPS_CONTROL
from repro.workload.application import Application

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.settings import Settings
    from repro.core.rng import RandomManager
    from repro.core.simulator import Simulator
    from repro.net.network import Network


class Phase(enum.Enum):
    WARMING = "warming"
    GENERATING = "generating"
    FINISHING = "finishing"
    DRAINING = "draining"


class WorkloadError(RuntimeError):
    """Raised on handshake protocol violations."""


_APPLICATIONS = Block(Application, "type", required=True, many=True)


class Workload(Component):
    """Builds the applications and runs the four-phase handshake.

    Settings:
        ``applications`` -- list of application blocks; each block's
            ``type`` selects the factory model (``blast``, ``pulse``, ...).
    """

    SETTINGS = {"applications": _APPLICATIONS}

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        parent: Optional[Component],
        settings: "Settings",
        network: "Network",
        random_manager: "RandomManager",
    ):
        super().__init__(simulator, name, parent)
        self.network = network
        self.phase = Phase.WARMING
        self.applications: List[Application] = []
        self._ready: Dict[int, bool] = {}
        self._complete: Dict[int, bool] = {}
        self._done: Dict[int, bool] = {}
        # Sampling window endpoints (ticks), for statistics.
        self.start_tick: Optional[int] = None
        self.stop_tick: Optional[int] = None
        self.kill_tick: Optional[int] = None

        for app_id, app_settings in enumerate(
                settings.read(Workload, "applications")):
            application = _APPLICATIONS.select(app_settings)(
                simulator,
                f"app{app_id}",
                self,
                app_id,
                app_settings,
                network,
                self,
                random_manager,
            )
            self.applications.append(application)
            self._ready[app_id] = False
            self._complete[app_id] = False
            self._done[app_id] = False
        if not self.applications:
            raise WorkloadError("workload needs at least one application")

        # Kick everything off at tick 0.
        self.simulator.add_event(Event(self._init_event), 0, epsilon=EPS_CONTROL)

    # -- startup ---------------------------------------------------------------------

    def _init_event(self, event: Event) -> None:
        for application in self.applications:
            application.on_init()

    # -- signals from applications ------------------------------------------------------

    def application_ready(self, application: Application) -> None:
        self._signal(application, Phase.WARMING, self._ready, self._all_ready)

    def application_complete(self, application: Application) -> None:
        self._signal(
            application, Phase.GENERATING, self._complete, self._all_complete
        )

    def application_done(self, application: Application) -> None:
        self._signal(application, Phase.FINISHING, self._done, self._all_done)

    def _signal(self, application, expected_phase, table, on_all) -> None:
        if self.phase != expected_phase:
            raise WorkloadError(
                f"{application.full_name} signalled during {self.phase.value}, "
                f"expected {expected_phase.value}"
            )
        app_id = application.application_id
        if table[app_id]:
            raise WorkloadError(
                f"{application.full_name} signalled twice in {self.phase.value}"
            )
        table[app_id] = True
        if all(table.values()):
            # Broadcast the phase command "simultaneously" to every
            # application: same tick, one epsilon later.
            self.schedule(on_all, 0, epsilon=EPS_CONTROL)

    # -- broadcast commands ----------------------------------------------------------------

    def _all_ready(self, event: Event) -> None:
        self.phase = Phase.GENERATING
        self.start_tick = self.simulator.tick
        for application in self.applications:
            application.on_start()

    def _all_complete(self, event: Event) -> None:
        self.phase = Phase.FINISHING
        self.stop_tick = self.simulator.tick
        for application in self.applications:
            application.on_stop()

    def _all_done(self, event: Event) -> None:
        self.phase = Phase.DRAINING
        self.kill_tick = self.simulator.tick
        for application in self.applications:
            application.on_kill()

    # -- queries ------------------------------------------------------------------------------

    @property
    def drained(self) -> bool:
        """True once the Kill command has been broadcast."""
        return self.phase == Phase.DRAINING

    def window_ticks(self) -> Optional[int]:
        """Length of the sampling window (Start to Stop), if complete."""
        if self.start_tick is None or self.stop_tick is None:
            return None
        return self.stop_tick - self.start_tick
