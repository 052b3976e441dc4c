"""Routing algorithm abstraction.

Each router owns one routing engine, and the routing decision is made
per input port (paper §IV-B): when a packet's head flit reaches the
front of an input VC buffer, ``route(packet, input_port, input_vc)``
produces the set of admissible ``(output port, output VC)`` pairs,
ordered by preference.  The router's VC-allocation stage then claims
the first candidate whose output VC is free.  State an algorithm keeps
per input port (two-phase routing's random streams) it indexes by port.

State an algorithm carries with a packet from hop to hop is one value,
``packet.routing_state``: ``None`` until the algorithm first sets it,
then an immutable, hashable value (the torus dateline's
``(dim, start)``, the two-phase intermediate).  An algorithm replaces
the value and never mutates it: the lint dependency trace
(:mod:`repro.lint.graph`) shares it between packet copies and keys its
visited set on it.  A choice made at the source router (two-phase
routing's detour) is declared by ``source_choices`` and set by
``commit``, and the trace follows every declared state.

The Network selects the algorithm and builds each router's engine, so
the router microarchitecture and the topology/routing pair stay
independent (§IV-B).

Error detection (§IV-D): the base class validates every response --
ports must be wired, VCs must be inside the set registered to the
algorithm, and a response must be a sequence, not a one-shot iterator
that validation would consume -- so a buggy user algorithm fails
loudly and immediately.
An algorithm that hands the same response object out again (a prebuilt
table entry) passes it through :meth:`RoutingAlgorithm.validated` once;
``respond()`` then recognises it by identity instead of re-checking.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro import factory

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.settings import Settings
    from repro.net.packet import Packet
    from repro.router.base import Router

#: A routing response entry: (output_port, output_vc).
Candidate = Tuple[int, int]


class RoutingError(RuntimeError):
    """Raised when a routing algorithm produces an invalid response."""


class RoutingAlgorithm:
    """Base class for routing engines, one per router."""

    #: The topology factory name this algorithm runs on (e.g.
    #: ``"torus"``; ``"*"`` = any topology).  Packaged and user
    #: algorithms declare it the same way and subclasses inherit it;
    #: :func:`topology_mismatch` is its only reader.
    topology: Optional[str] = None

    #: False declares that :meth:`route` never queries the congestion
    #: sensor; a router whose engine says so does not feed it.
    reads_congestion = True

    def __init__(
        self,
        network,
        router: "Router",
        settings: "Settings",
    ):
        problem = self.vc_count_error(router.num_vcs, network.settings)
        if problem is not None:
            name = settings.get("algorithm", type(self).__name__)
            raise RoutingError(f"{name} {problem}")
        self.network = network
        self.router = router
        self.settings = settings
        # The VCs this algorithm has registered itself to use.  Responses
        # using other VCs are rejected (§IV-D).
        self._registered_vcs = frozenset(range(router.num_vcs))
        # (port, vc) pairs already validated, and responses validated by
        # identity (id -> object, held so the id cannot be reused).
        self._validated: set = set()
        self._validated_responses: Dict[int, Sequence[Candidate]] = {}

    # -- VC registration ---------------------------------------------------------

    def register_vcs(self, vcs: Sequence[int]) -> None:
        """Restrict responses to this VC set (e.g. a traffic class)."""
        vcs = frozenset(vcs)
        for vc in vcs:
            if not 0 <= vc < self.router.num_vcs:
                raise RoutingError(f"registered VC {vc} out of range")
        self._registered_vcs = vcs
        self._validated, self._validated_responses = set(), {}

    @property
    def registered_vcs(self) -> frozenset:
        return self._registered_vcs

    # -- the algorithm -------------------------------------------------------------

    @classmethod
    def injection_vcs(cls, num_vcs: int) -> List[int]:
        """VCs on which packets may enter the network.

        Topology routing algorithms override this when deadlock freedom
        requires packets to start in a particular VC class (e.g. torus
        dateline VC 0).
        """
        return list(range(num_vcs))

    @classmethod
    def vc_count_error(
        cls, num_vcs: int, network_settings: "Settings"
    ) -> Optional[str]:
        """Why ``num_vcs`` VCs cannot carry this algorithm on the network
        ``network_settings`` configures, or None.

        The one statement of an algorithm's VC requirement: the
        constructor raises it as a :class:`RoutingError` and lint rule
        C007 reports it before construction, both after the algorithm's
        name.
        """
        return None

    def route(
        self, packet: "Packet", input_port: int, input_vc: int
    ) -> Sequence[Candidate]:
        """Produce admissible (port, vc) candidates, best first, for a
        packet at the front of ``input_vc`` of ``input_port``."""
        raise NotImplementedError

    def source_choices(self, packet: "Packet") -> Sequence[Any]:
        """Every ``routing_state`` a decision at ``packet``'s source
        router (this one) can commit; ``()`` if it decides nothing."""
        return ()

    def commit(self, packet: "Packet", state: Any) -> None:
        """Commit ``packet`` to ``state``, one of its source choices."""
        packet.routing_state = state

    # -- validated entry point used by routers ---------------------------------------

    def respond(
        self, packet: "Packet", input_port: int, input_vc: int
    ) -> Sequence[Candidate]:
        response = self.route(packet, input_port, input_vc)
        if id(response) in self._validated_responses:
            return response
        return self._check(response, packet, input_port)

    def validated(
        self, response: Sequence[Candidate], packet: Optional["Packet"] = None
    ) -> Sequence[Candidate]:
        """Check ``response`` now; :meth:`respond` then passes the same
        object unchecked (for responses an algorithm hands out again)."""
        self._check(response, packet)
        self._validated_responses[id(response)] = response
        return response

    def _check(
        self,
        response: Sequence[Candidate],
        packet: Optional["Packet"],
        input_port: Optional[int] = None,
    ) -> Sequence[Candidate]:
        router = self.router
        if iter(response) is response:
            # Validating would consume it, leaving VC allocation nothing.
            raise RoutingError(
                f"{type(self).__name__} at {router.full_name} returned a "
                f"one-shot iterator; return a list or tuple of candidates"
            )
        if not response:
            where = router.full_name
            if input_port is not None:
                where += f".in{input_port}"
            raise RoutingError(
                f"{type(self).__name__} at {where} produced no route for "
                f"{packet!r}"
            )
        validated = self._validated
        for candidate in response:
            if candidate in validated:
                continue
            port, vc = candidate
            if not 0 <= port < router.num_ports:
                raise RoutingError(
                    f"routing response port {port} out of range at "
                    f"{router.full_name}"
                )
            if not router.port_is_wired(port):
                raise RoutingError(
                    f"routing response targets unused output port {port} at "
                    f"{router.full_name} for {packet!r}"
                )
            if vc not in self._registered_vcs:
                raise RoutingError(
                    f"routing response VC {vc} not registered to "
                    f"{type(self).__name__} at {router.full_name}"
                )
            validated.add(candidate)
        return response

    # -- helpers -----------------------------------------------------------------------

    def congestion(self, port: int, vc: int) -> float:
        """Sensed congestion for a candidate (delayed view, §VI-A)."""
        return self.router.sensor.status(port, vc)

    def port_congestion(self, port: int, vcs: Sequence[int]) -> float:
        """Mean sensed congestion across ``vcs`` of ``port``."""
        vcs = list(vcs)
        if not vcs:
            return 0.0
        status = self.router.sensor.status
        return sum(status(port, vc) for vc in vcs) / len(vcs)


def topology_mismatch(algorithm: str, topology: Optional[str]) -> Optional[str]:
    """Why the registered routing ``algorithm`` cannot run on
    ``topology``, or None if it can.

    The network build and lint rule C006 both ask here, so the
    algorithms' ``topology`` declarations are the one compatibility
    statement; the expected list is read from the factory registry.
    """
    def runs_on(name: str) -> bool:
        declared = factory.lookup(RoutingAlgorithm, name).topology
        return declared is not None and declared in ("*", topology)

    if runs_on(algorithm):
        return None
    expected = [name for name in factory.names(RoutingAlgorithm) if runs_on(name)]
    return (
        f"routing algorithm {algorithm!r} is not compatible with topology "
        f"{topology!r}" + (f"; expected one of {expected}" if expected else "")
    )
