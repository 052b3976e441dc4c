"""Application and Terminal base classes (paper §IV-A).

Traffic generation is hierarchical: a Workload contains one or more
Applications running concurrently, and each Application constructs one
Terminal per network endpoint.  Each Terminal generates the traffic for
its specific Application on its specific endpoint.

Applications participate in the Workload's four-phase handshake
(Fig. 4) by calling :meth:`Application.ready`, :meth:`complete`, and
:meth:`done`, and by implementing the ``on_init`` / ``on_start`` /
``on_stop`` / ``on_kill`` command hooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.config.spec import KeySpec
from repro.core.component import Component
from repro.core.event import Event
from repro.net.message import Message
from repro.net.phases import EPS_GENERATE
from repro.workload.injection import INJECTION, InjectionProcess
from repro.workload.size import MESSAGE_SIZE, create_size_distribution
from repro.workload.traffic import TRAFFIC, create_traffic_pattern

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.settings import Settings
    from repro.core.rng import RandomManager
    from repro.core.simulator import Simulator
    from repro.net.network import Network
    from repro.workload.workload import Workload


class Application(Component):
    """Abstract application: builds one Terminal per endpoint.

    Common settings:
        ``injection_rate`` -- flits per terminal per channel cycle.
        ``traffic`` -- traffic pattern block (``type`` selects model).
        ``message_size`` -- size distribution block.
        ``injection`` -- injection process block.
    """

    SETTINGS = {
        "injection_rate": KeySpec("float", 0.0, minimum=0.0),
        "traffic": TRAFFIC,
        "message_size": MESSAGE_SIZE,
        "injection": INJECTION,
    }

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        parent: Component,
        application_id: int,
        settings: "Settings",
        network: "Network",
        workload: "Workload",
        random_manager: "RandomManager",
    ):
        super().__init__(simulator, name, parent)
        self.application_id = application_id
        self.settings = settings
        self.network = network
        self.workload = workload
        self.random = random_manager

        model = type(self)
        self.injection_rate = settings.read(model, "injection_rate")
        self.traffic = create_traffic_pattern(
            settings.read(model, "traffic"),
            network.num_terminals,
            network,
            random_manager.generator(f"{name}.traffic"),
        )
        self.size_distribution = create_size_distribution(
            settings.read(model, "message_size"),
            random_manager.generator(f"{name}.size"),
        )
        self.injection_settings = settings.read(model, "injection")
        self.injection_class = INJECTION.select(self.injection_settings)

        # Delivery accounting (drives the Done signal).
        self.messages_created = 0
        self.messages_delivered = 0
        self.sampled_created = 0
        self.sampled_delivered = 0
        self.flits_created = 0
        self.sampled_flits_created = 0
        self.sampling = False

        self.terminals: List[Terminal] = [
            self._build_terminal(tid) for tid in self._terminal_ids()
        ]
        for interface in network.interfaces:
            interface.message_delivered_listeners.append(self._message_delivered)

    # -- construction ---------------------------------------------------------

    def _terminal_ids(self) -> List[int]:
        """Endpoints this application drives (default: all)."""
        return list(range(self.network.num_terminals))

    def _build_terminal(self, terminal_id: int) -> "Terminal":
        return Terminal(
            self.simulator,
            f"terminal{terminal_id}",
            self,
            terminal_id,
            self,
        )

    # -- handshake signals to the workload ----------------------------------------

    def ready(self) -> None:
        self.workload.application_ready(self)

    def complete(self) -> None:
        self.workload.application_complete(self)

    def done(self) -> None:
        self.workload.application_done(self)

    # -- sharded-runtime protocol -----------------------------------------------

    #: Which deliveries the sharded coordinator counts toward this
    #: application's Done quota: ``"all"`` messages or only ``"sampled"``
    #: ones (see repro.partition.runtime).
    shard_delivery_target = "all"

    @classmethod
    def shard_schedule(cls, app_config: dict):
        """Static (ready_tick, complete_offset) for a config, or None.

        The sharded runtime replaces the Ready/Complete handshake with a
        statically derived schedule: every worker must raise the phase
        barriers at the same tick without observing deliveries.  Return
        ``(ready_tick, complete_offset)`` -- Ready fires at
        ``ready_tick`` and Complete at ``t_start + complete_offset`` --
        when this configuration's handshake is time-driven, or ``None``
        when it depends on runtime feedback (which places the config
        outside the sharded scope even if the S-rules found no hazard).
        The base class declines: subclasses opt in explicitly.
        """
        return None

    def shard_force_done(self) -> None:
        """Neutralize local Done detection under the sharded runtime.

        The coordinator replays the globally merged Done/Kill decision;
        a worker's own delivery-count trigger must not fire afterwards.
        Subclasses reset whatever latch their ``on_message_delivered``
        uses.  The base class has no Done detection, so: nothing.
        """

    # -- command hooks from the workload --------------------------------------------

    def on_init(self) -> None:
        """Simulation begins: the application is in the warming phase."""
        raise NotImplementedError

    def on_start(self) -> None:
        """All applications reported Ready: generating phase begins."""
        raise NotImplementedError

    def on_stop(self) -> None:
        """All applications reported Complete: finishing phase begins."""
        raise NotImplementedError

    def on_kill(self) -> None:
        """All applications reported Done: draining -- stop all traffic."""
        raise NotImplementedError

    # -- traffic bookkeeping ------------------------------------------------------------

    def message_generated(self, message: Message) -> None:
        self.messages_created += 1
        self.flits_created += message.num_flits
        if message.sampled:
            self.sampled_created += 1
            self.sampled_flits_created += message.num_flits

    def _message_delivered(self, message: Message) -> None:
        if message.application_id != self.application_id:
            return
        self.messages_delivered += 1
        if message.sampled:
            self.sampled_delivered += 1
        self.on_message_delivered(message)

    def on_message_delivered(self, message: Message) -> None:
        """Hook for subclasses (e.g. Done detection)."""

    # -- control over terminals ------------------------------------------------------------

    def start_terminals(self) -> None:
        for terminal in self.terminals:
            terminal.start_injecting()

    def stop_terminals(self) -> None:
        for terminal in self.terminals:
            terminal.stop_injecting()


class Terminal(Component):
    """Per-endpoint traffic generator for one application.

    The terminal samples geometric inter-arrival gaps from the
    application's injection process and creates messages with the
    application's traffic pattern and size distribution.  The
    ``sampled`` flag on each message mirrors the application's current
    sampling state (set during the generating phase).
    """

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        parent: Component,
        terminal_id: int,
        application: Application,
    ):
        super().__init__(simulator, name, parent)
        self.terminal_id = terminal_id
        self.application = application
        self.interface = application.network.interface(terminal_id)
        rate = application.injection_rate
        self.injection: Optional[InjectionProcess] = None
        if rate > 0.0:
            self.injection = application.injection_class(
                application.injection_settings,
                rate,
                application.size_distribution.mean(),
                application.random.generator(f"{application.name}.inj{terminal_id}"),
            )
        self._injecting = False
        self._pending_event: Optional[Event] = None

    # -- control -----------------------------------------------------------------

    def start_injecting(self) -> None:
        if self._injecting or self.injection is None:
            return
        self._injecting = True
        self._schedule_next()

    def stop_injecting(self) -> None:
        self._injecting = False
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None

    # -- generation ---------------------------------------------------------------------

    def _schedule_next(self) -> None:
        gap_cycles = self.injection.next_gap()
        gap_ticks = gap_cycles * self.application.network.channel_period
        self._pending_event = self.schedule(
            self._generate, gap_ticks, epsilon=EPS_GENERATE
        )

    def _generate(self, event: Event) -> None:
        self._pending_event = None
        if not self._injecting:
            return
        message = self.create_message()
        self.interface.send_message(message)
        self.application.message_generated(message)
        self._schedule_next()

    def create_message(self) -> Message:
        application = self.application
        destination = application.traffic.destination(self.terminal_id)
        size = application.size_distribution.sample()
        message = Message(
            next(application.network.message_ids),
            application.application_id,
            self.terminal_id,
            destination,
            size,
        )
        message.created_tick = self.simulator.tick
        message.sampled = application.sampling
        return message
