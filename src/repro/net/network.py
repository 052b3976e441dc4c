"""Network base class (paper §IV-B).

A Network component defines the topology and the routing algorithm used
in it.  It does not define the architecture of the Router or the
Interface -- it instantiates them through the object factory and
connects them with Channel components.  Once a Router is wired and
addressed, the Network builds its one RoutingAlgorithm and hands it
over at ``finalize``; the router asks it to route each packet at any of
its input ports.  In this way the router microarchitecture and the
topology with its accompanying routing algorithm are modeled
independently.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, List, Optional, Tuple, Type

from repro.config.spec import Block, KeySpec
from repro.core.clock import Clock
from repro.core.component import Component
from repro.net.channel import Channel, CreditChannel
from repro.net.device import PortedDevice
from repro.net.interface import Interface, StandardInterface
from repro.router.base import Router
from repro.routing.base import RoutingAlgorithm, topology_mismatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.settings import Settings
    from repro.core.rng import RandomManager
    from repro.core.simulator import Simulator


class NetworkError(RuntimeError):
    """Raised for inconsistent network construction."""


# -- shard-restricted construction (PDES workers) ---------------------------
#
# A shard worker must build the *whole* network object graph -- component
# names, channel wiring, RNG label registration and id sequences have to
# match the single-process run exactly -- but only the routers of its own
# shard ever execute, so only those need finalize() (routing-engine
# construction and congestion-sensor port init, the expensive part of
# construction).  Foreign routers stay inert skeletons: wired, named,
# never scheduled.

_FINALIZE_RESTRICTION: Optional[frozenset] = None


class shard_build_scope:
    """Context manager restricting ``finalize()`` to named components.

    ``names`` holds component full names (a manifest shard's
    ``components`` list).  While active, any Network constructed only
    finalizes routers whose ``full_name`` is in the set.  Interfaces are
    unaffected (their construction is cheap and phantom patching happens
    post-build).  Not reentrant; single-threaded use only.
    """

    def __init__(self, names) -> None:
        self._names = frozenset(names)
        self._previous: Optional[frozenset] = None

    def __enter__(self) -> "shard_build_scope":
        global _FINALIZE_RESTRICTION
        self._previous = _FINALIZE_RESTRICTION
        _FINALIZE_RESTRICTION = self._names
        return self

    def __exit__(self, *exc_info) -> None:
        global _FINALIZE_RESTRICTION
        _FINALIZE_RESTRICTION = self._previous


def wire(
    network: "Network",
    a: PortedDevice,
    port_a: int,
    b: PortedDevice,
    port_b: int,
    latency: int,
    period: int,
) -> None:
    """Connect two device ports with a full bidirectional link.

    Creates four channels: flits a->b and b->a, credits a->b and b->a,
    all with the same latency.  Also sizes each side's credit tracker
    from the opposite side's input buffer capacities.
    """
    simulator = network.simulator
    index = network._next_link_index()
    for src, sp, dst, dp, tag in (
        (a, port_a, b, port_b, "f0"),
        (b, port_b, a, port_a, "f1"),
    ):
        channel = Channel(
            simulator, f"link{index}_{tag}", network, latency, period
        )
        src.set_flit_channel_out(sp, channel)
        channel.connect_sink(dst, dp)
        network.flit_channels.append(channel)
    for src, sp, dst, dp, tag in (
        (a, port_a, b, port_b, "c0"),
        (b, port_b, a, port_a, "c1"),
    ):
        channel = CreditChannel(simulator, f"link{index}_{tag}", network, latency)
        src.set_credit_channel_out(sp, channel)
        channel.connect_sink(dst, dp)
    a.init_output_credits(port_a, b.input_buffer_capacities(port_b))
    b.init_output_credits(port_b, a.input_buffer_capacities(port_a))


_ROUTER = Block(Router, "architecture", required=True)
_INTERFACE = Block(Interface, "type", "standard")
_ROUTING = Block(RoutingAlgorithm, "algorithm", required=True)


class Network(Component):
    """Abstract base: builds routers, interfaces, and channels.

    Common settings:
        ``num_vcs`` -- virtual channels per port.
        ``channel_latency`` -- router-to-router latency in ticks.
        ``terminal_channel_latency`` -- interface-to-router latency.
        ``channel_period`` -- ticks per flit on every channel (a period
            of 2 with the 1-tick router core models 2x frequency
            speedup, §III-B).
        ``router`` -- settings block for the router architecture
            (``architecture`` selects the factory model).
        ``interface`` -- settings block for the interface model.
        ``routing`` -- settings block; ``algorithm`` selects the model.
    """

    SETTINGS = {
        "num_vcs": KeySpec("uint", 1, minimum=1),
        "channel_latency": KeySpec("uint", 1, minimum=1),
        "terminal_channel_latency": KeySpec("uint", 1, minimum=1),
        "channel_period": KeySpec("uint", 1, minimum=1),
        "router": _ROUTER,
        "interface": _INTERFACE,
        "routing": _ROUTING,
    }

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        parent: Optional[Component],
        settings: "Settings",
        random_manager: "RandomManager",
    ):
        super().__init__(simulator, name, parent)
        self.settings = settings
        self.random = random_manager
        model = type(self)
        self.num_vcs = settings.read(model, "num_vcs")
        self.channel_latency = settings.read(model, "channel_latency")
        self.terminal_channel_latency = settings.read(
            model, "terminal_channel_latency")
        self.channel_period = settings.read(model, "channel_period")
        self.core_clock = Clock(simulator, period=1)
        self.channel_clock = Clock(simulator, period=self.channel_period)

        self.router_settings = settings.read(model, "router")
        self.router_class: Type[Router] = _ROUTER.select(self.router_settings)
        self.interface_settings = settings.read(model, "interface")
        self.interface_class: Type[Interface] = _INTERFACE.select(
            self.interface_settings)
        self.routing_settings = settings.read(model, "routing")
        self.routing_class: Type[RoutingAlgorithm] = _ROUTING.select(
            self.routing_settings)
        problem = topology_mismatch(self.routing_settings.get("algorithm"),
                                    settings.get("topology", None))
        if problem is not None:
            raise NetworkError(problem)

        # The simulation's id sequences: terminals number messages from
        # ``message_ids``, interfaces packets from ``packet_ids``.  Routing
        # reads packet ids, so a run depends on its configuration only,
        # not on what the process simulated before.
        self.message_ids = itertools.count()
        self.packet_ids = itertools.count()

        self.routers: List[Router] = []
        self.interfaces: List[Interface] = []
        self.flit_channels: List[Channel] = []
        self._link_count = 0

        self._build()
        restriction = _FINALIZE_RESTRICTION
        for router in self.routers:
            if restriction is None or router.full_name in restriction:
                router.finalize(
                    self.routing_class(self, router, self.routing_settings)
                )
        self._check_fully_wired()

    # -- subclass contract -------------------------------------------------------

    def _build(self) -> None:
        """Create routers and interfaces and wire them together."""
        raise NotImplementedError

    def minimal_hops(self, src_terminal: int, dst_terminal: int) -> int:
        """Router-to-router hops on a minimal path (for analyses)."""
        raise NotImplementedError

    # -- helpers for subclasses -----------------------------------------------------

    def _next_link_index(self) -> int:
        index = self._link_count
        self._link_count += 1
        return index

    def _create_router(self, name: str, router_id: int, num_ports: int) -> Router:
        router = self.router_class(
            self.simulator,
            name,
            self,
            router_id,
            num_ports,
            self.num_vcs,
            self.router_settings,
            self.core_clock,
            self.channel_clock,
        )
        self.routers.append(router)
        return router

    def _create_interface(self, interface_id: int) -> Interface:
        injection_vcs = self.routing_class.injection_vcs(self.num_vcs)
        interface = self.interface_class(
            self.simulator,
            f"interface{interface_id}",
            self,
            interface_id,
            self.num_vcs,
            self.interface_settings,
            self.channel_clock,
            injection_vcs,
        )
        self.interfaces.append(interface)
        return interface

    def _wire_routers(self, a: Router, pa: int, b: Router, pb: int) -> None:
        wire(self, a, pa, b, pb, self.channel_latency, self.channel_period)

    def _wire_terminal(self, interface: Interface, router: Router, port: int) -> None:
        wire(
            self,
            interface,
            0,
            router,
            port,
            self.terminal_channel_latency,
            self.channel_period,
        )

    def _check_fully_wired(self) -> None:
        for interface in self.interfaces:
            if not interface.port_is_wired(0):
                raise NetworkError(f"{interface.full_name} left unwired")

    # -- public API -------------------------------------------------------------------

    @property
    def num_terminals(self) -> int:
        return len(self.interfaces)

    @property
    def num_routers(self) -> int:
        return len(self.routers)

    def interface(self, terminal_id: int) -> Interface:
        return self.interfaces[terminal_id]

    def router(self, router_id: int) -> Router:
        return self.routers[router_id]

    def total_flits_in_flight(self) -> int:
        """Injection backlog across all interfaces (drain diagnostics)."""
        return sum(i.pending_flits() for i in self.interfaces)

    def channel_utilization(self, window_ticks: int) -> List[Tuple[str, float]]:
        """(channel name, flits per cycle) over ``window_ticks``.

        Utilizations use each channel's lifetime flit count, so pass the
        full run length; for windowed analyses use the message log.
        Sorted most-loaded first -- the quick way to find hotspots.
        """
        report = [
            (channel.name, channel.utilization(window_ticks))
            for channel in self.flit_channels
        ]
        report.sort(key=lambda item: -item[1])
        return report
