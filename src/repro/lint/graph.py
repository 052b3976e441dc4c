"""Graph-layer lint (G001..G006): inspect the network without running it.

Network construction in this code base is entirely event-free (the
Network constructor builds every router, interface, and channel and
hands each router its routing engine at ``finalize()``), so the linter can
instantiate the full machine, probe its wiring, and exercise the
routing algorithms *statically* -- no simulation events ever fire.

The centerpiece is the **channel dependency graph** (CDG) in the sense
of Dally & Seitz: nodes are ``(channel, vc)`` pairs and an edge A->B
means a packet holding A may next request B.  The linter derives the
edges by replaying each routing algorithm's ``respond()`` over a
sampled set of source/destination pairs, following every candidate the
algorithm may return and every state its source decision may commit
(``source_choices``).  Two graphs are kept:

* the *full* graph over every candidate, and
* the *escape* graph over only the least-preferred (fallback)
  candidate of each response -- the path a packet can always take when
  everything else is congested.

A cycle in the escape graph means the routing algorithm is
deadlock-prone (G004, error).  A cycle only in the full graph is
reported as info (G005): adaptive algorithms are routinely cyclic in
their adaptive class and rely on an acyclic escape class (Duato's
criterion).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro import factory, models
from repro.config.settings import Settings
from repro.config.spec import spec_of
from repro.core.rng import RandomManager
from repro.core.simulator import Simulator
from repro.lint.findings import Finding, Severity
from repro.lint.rules import GRAPH_LAYER, LintContext, LintRule
from repro.net.interface import Interface
from repro.net.message import Message
from repro.net.network import Network
from repro.net.packet import Packet
from repro.router.base import Router
from repro.routing.base import RoutingError
from repro.sim import SIMULATOR, Simulation

Node = Tuple[str, int]  # (channel full name, vc)


class ChannelRecord(NamedTuple):
    """One directed channel of the constructed network.

    ``latency`` is read off the live :class:`~repro.net.channel.Channel`
    object, i.e. the value ``Channel.__init__`` actually received after
    every settings override was applied -- never the schema default.
    The partition planner derives shard lookahead from these numbers,
    so recording a default where the config overrode it would make the
    "conservative" lookahead silently optimistic.
    """

    name: str          # channel full name
    kind: str          # "flit" | "credit"
    source: str        # source device full name
    source_port: int
    sink: str          # sink device full name
    sink_port: int
    latency: int       # ticks, post-override (see docstring)


def _copy_packet(packet: Packet) -> Packet:
    """Slot-wise copy of ``packet``; the copies share ``routing_state``,
    which engines replace and never mutate."""
    clone = Packet.__new__(Packet)
    for slot in Packet.__slots__:
        setattr(clone, slot, getattr(packet, slot))
    return clone


def scan_channels(network) -> List[ChannelRecord]:
    """Record every directed channel with its as-constructed latency.

    The latency is taken from the live channel objects rather than
    re-derived from settings: ``wire()`` hands different latencies to
    router-router and terminal links, and overrides
    (``network.channel_latency=uint=...``) change what the constructor
    received.  The objects are the ground truth the simulation will run
    with -- reading a settings default here would poison the partition
    planner's lookahead computation.
    """
    records: List[ChannelRecord] = []
    devices = list(network.routers) + list(network.interfaces)
    for device in devices:
        for port in range(device.num_ports):
            flit = device._flit_out[port]
            if flit is not None and flit.sink is not None:
                records.append(ChannelRecord(
                    flit.full_name, "flit",
                    device.full_name, port,
                    flit.sink.full_name, flit.sink_port,
                    flit.latency,
                ))
            credit = device._credit_out[port]
            if credit is not None and credit.sink is not None:
                records.append(ChannelRecord(
                    credit.full_name, "credit",
                    device.full_name, port,
                    credit.sink.full_name, credit.sink_port,
                    credit.latency,
                ))
    return records


class GraphAnalysis:
    """Construct the network and trace its channel dependency graph."""

    def __init__(self, settings: Optional[Settings], max_pairs: int = 512):
        self.constructed = False
        self.construction_error: Optional[str] = None
        self.network: Optional[Network] = None
        self.unwired_ports: List[Tuple[str, int]] = []
        self.response_errors: List[str] = []
        self.trace_warnings: List[str] = []
        self.truncated = False
        self.full_edges: Dict[Node, Set[Node]] = {}
        self.escape_edges: Dict[Node, Set[Node]] = {}
        self.full_cycle: Optional[List[Node]] = None
        self.escape_cycle: Optional[List[Node]] = None
        self.pairs_traced = 0
        self.channels: List[ChannelRecord] = []
        if settings is None:
            self.construction_error = "no settings provided"
            return
        self._run(settings, max_pairs)

    # -- construction --------------------------------------------------------

    def _run(self, settings: Settings, max_pairs: int) -> None:
        self._build(settings)
        if self.network is not None:
            self._scan_ports()
            self._scan_channels()
            self._trace(max_pairs)
            self.full_cycle = _find_cycle(self.full_edges)
            self.escape_cycle = _find_cycle(self.escape_edges)

    def _build(self, settings: Settings) -> None:
        models.load_all()
        try:
            network_settings = settings.read(Simulation, "network")
            model = spec_of(Simulation, "network").select(network_settings)
            seed = settings.read(Simulation, "simulator").read(SIMULATOR, "seed")
            self.network = model(Simulator(), "network", None, network_settings,
                                 RandomManager(seed))
            self.constructed = True
        except Exception as exc:  # construction must never crash the linter
            self.construction_error = f"{type(exc).__name__}: {exc}"
            self.network = None

    def _scan_ports(self) -> None:
        assert self.network is not None
        for router in self.network.routers:
            for port in range(router.num_ports):
                if not router.port_is_wired(port):
                    self.unwired_ports.append((router.full_name, port))

    def _scan_channels(self) -> None:
        assert self.network is not None
        self.channels = scan_channels(self.network)

    # -- channel dependency trace --------------------------------------------

    def _sample_pairs(self, max_pairs: int) -> List[Tuple[int, int]]:
        assert self.network is not None
        n = self.network.num_terminals
        total = n * (n - 1)
        if total <= 0:
            return []

        def pair(index: int) -> Tuple[int, int]:
            src, k = divmod(index, n - 1)
            dst = k if k < src else k + 1
            return src, dst

        if total <= max_pairs:
            return [pair(i) for i in range(total)]
        # Deterministic strided sample across the src x dst product.
        return [pair(i * total // max_pairs) for i in range(max_pairs)]

    def _trace(self, max_pairs: int) -> None:
        assert self.network is not None
        network = self.network
        budget_per_pair = max(64, 50 * max(1, network.num_routers))
        for src, dst in self._sample_pairs(max_pairs):
            self._trace_pair(src, dst, budget_per_pair)
            self.pairs_traced += 1

    def _trace_pair(self, src: int, dst: int, budget: int) -> None:
        """Depth-first replay of ``respond()`` from ``src`` toward ``dst``.

        One branch starts per state the injection router's engine may
        commit (``source_choices``, set through its ``commit``), so no
        choice is drawn.  A state is ``(router, in_port, in_vc,
        routing_state)``.  Each queued state owns one packet copy, which
        its expansion hands to ``respond()`` to update in place, and a
        child whose key is already visited is dropped before it is
        copied.  So an expanded state costs one ``respond()`` and one
        copy.
        """
        network = self.network
        assert network is not None
        interface = network.interfaces[src]
        # Probe packets draw ids from the lint's own network.
        packet = Message(next(network.message_ids), 0, src, dst, 1).packetize(
            1, network.packet_ids
        )[0]
        channel = interface._flit_out[0]
        if channel is None or not isinstance(channel.sink, Router):
            return  # construction already validates terminal wiring
        injection_vcs = list(
            getattr(interface, "injection_vcs", None)
            or network.routing_class.injection_vcs(network.num_vcs)
        )
        source = channel.sink
        queue: List[Tuple[Router, int, int, Packet, Node]] = []
        for state in source.routing.source_choices(packet) or (None,):
            for vc in injection_vcs:
                pkt = _copy_packet(packet)
                if state is not None:
                    source.routing.commit(pkt, state)
                queue.append((source, channel.sink_port, vc, pkt,
                              (channel.full_name, vc)))
        visited: Set[Tuple] = set()
        full_edges = self.full_edges
        escape_edges = self.escape_edges
        expansions = 0
        while queue:
            router, in_port, in_vc, pkt, cur_node = queue.pop()
            key = (router, in_port, in_vc, pkt.routing_state)
            if key in visited:
                continue
            visited.add(key)
            expansions += 1
            if expansions > budget:
                self.truncated = True
                self.trace_warnings.append(
                    f"dependency trace for pair {src}->{dst} exceeded the "
                    f"expansion budget ({budget}); cycle analysis may be "
                    f"incomplete"
                )
                return
            try:
                response = router.routing.respond(pkt, in_port, in_vc)
            except RoutingError as exc:
                self.response_errors.append(str(exc))
                continue
            if not response:
                self.response_errors.append(
                    f"{router.full_name}: routing returned no candidates for "
                    f"packet to terminal {pkt.destination} on port {in_port} "
                    f"vc {in_vc}"
                )
                continue
            state = pkt.routing_state
            try:
                hash(state)
            except TypeError:
                self.response_errors.append(
                    f"routing engine {type(router.routing).__name__} stored "
                    f"an unhashable routing_state "
                    f"({type(state).__name__}); the dependency "
                    f"trace shares it between packet copies: replace the "
                    f"value, do not mutate it"
                )
                return
            # The escape resource is the single least-preferred candidate:
            # the (port, vc) a blocked packet can always fall back to.
            escape = response[-1]
            for out_port, out_vc in response:
                out_channel = router._flit_out[out_port]
                if out_channel is None or out_channel.sink is None:
                    # respond() validates wiring; only reachable with a
                    # bypassed validation, but stay safe.
                    self.response_errors.append(
                        f"{router.full_name}: routing selected unwired port "
                        f"{out_port}"
                    )
                    continue
                node = (out_channel.full_name, out_vc)
                full_edges.setdefault(cur_node, set()).add(node)
                if (out_port, out_vc) == escape:
                    escape_edges.setdefault(cur_node, set()).add(node)
                sink = out_channel.sink
                if not isinstance(sink, Router):
                    if (isinstance(sink, Interface)
                            and sink.interface_id != pkt.destination):
                        self.trace_warnings.append(
                            f"{router.full_name}: packet for terminal "
                            f"{pkt.destination} would eject at interface "
                            f"{sink.interface_id} via port {out_port}"
                        )
                    continue
                sink_port = out_channel.sink_port
                if (sink, sink_port, out_vc, state) in visited:
                    continue
                hop = _copy_packet(pkt)
                hop.hop_count += 1
                queue.append((sink, sink_port, out_vc, hop, node))


# ---------------------------------------------------------------------------
# cycle detection (iterative Tarjan SCC)
# ---------------------------------------------------------------------------


def _find_cycle(edges: Dict[Node, Set[Node]]) -> Optional[List[Node]]:
    """Return the nodes of one strongly connected cycle, or None.

    A cycle is an SCC with more than one node, or a self-loop.
    """
    for node, targets in edges.items():
        if node in targets:
            return [node]
    index: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    counter = itertools.count()
    nodes = set(edges)
    for targets in edges.values():
        nodes |= targets

    for root in sorted(nodes):
        if root in index:
            continue
        work: List[Tuple[Node, Optional[iter]]] = [(root, None)]
        while work:
            node, children = work[-1]
            if children is None:
                index[node] = lowlink[node] = next(counter)
                stack.append(node)
                on_stack.add(node)
                children = iter(sorted(edges.get(node, ())))
                work[-1] = (node, children)
            advanced = False
            for child in children:
                if child not in index:
                    work.append((child, None))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc: List[Node] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                if len(scc) > 1:
                    return list(reversed(scc))
    return None


def _render_cycle(cycle: List[Node], limit: int = 6) -> str:
    shown = cycle[:limit]
    text = " -> ".join(f"{name}:vc{vc}" for name, vc in shown)
    if len(cycle) > limit:
        text += f" -> ... ({len(cycle)} channels total)"
    return text


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


class _GraphRule(LintRule):
    layer = GRAPH_LAYER


@factory.register(LintRule, "G001")
class ConstructionRule(_GraphRule):
    rule_id = "G001"
    description = "Network construction failed (wiring or settings fault)"

    def check(self, ctx: LintContext):
        graph = ctx.graph()
        if graph.constructed or graph.construction_error is None:
            return []
        return [
            Finding(
                "G001",
                Severity.ERROR,
                f"network construction failed: {graph.construction_error}",
                config_path="network",
            )
        ]


@factory.register(LintRule, "G002")
class UnconnectedPortRule(_GraphRule):
    rule_id = "G002"
    description = ("Router port left unwired (expected for edge routers of "
                   "some topologies, hence informational)")

    def check(self, ctx: LintContext):
        graph = ctx.graph()
        return [
            Finding(
                "G002",
                Severity.INFO,
                f"router port {name}.port{port} is unconnected",
                config_path="network",
            )
            for name, port in graph.unwired_ports
        ]


@factory.register(LintRule, "G003")
class RoutingResponseRule(_GraphRule):
    rule_id = "G003"
    description = ("Routing algorithm produced an invalid response during "
                   "the dependency trace (unwired port, unregistered VC, "
                   "or no candidates)")

    def check(self, ctx: LintContext):
        graph = ctx.graph()
        seen: Set[str] = set()
        findings = []
        for message in graph.response_errors:
            if message in seen:
                continue
            seen.add(message)
            findings.append(
                Finding(
                    "G003",
                    Severity.ERROR,
                    message,
                    config_path="network.routing",
                )
            )
        return findings


@factory.register(LintRule, "G004")
class EscapeCycleRule(_GraphRule):
    rule_id = "G004"
    description = ("Cycle in the escape channel dependency graph: the "
                   "routing algorithm can deadlock on this topology")

    def check(self, ctx: LintContext):
        graph = ctx.graph()
        if graph.escape_cycle is None:
            return []
        return [
            Finding(
                "G004",
                Severity.ERROR,
                f"escape channel dependency graph is cyclic -- the routing "
                f"algorithm can deadlock: "
                f"{_render_cycle(graph.escape_cycle)}",
                config_path="network.routing.algorithm",
            )
        ]


@factory.register(LintRule, "G005")
class AdaptiveCycleRule(_GraphRule):
    rule_id = "G005"
    description = ("Cycle in the full channel dependency graph only: safe "
                   "iff the acyclic escape class is always reachable "
                   "(Duato's criterion)")

    def check(self, ctx: LintContext):
        graph = ctx.graph()
        if graph.full_cycle is None or graph.escape_cycle is not None:
            return []
        return [
            Finding(
                "G005",
                Severity.INFO,
                f"full channel dependency graph is cyclic (adaptive class); "
                f"escape class is acyclic, so this is deadlock-free by "
                f"Duato's criterion: {_render_cycle(graph.full_cycle)}",
                config_path="network.routing.algorithm",
            )
        ]


@factory.register(LintRule, "G006")
class TraceAnomalyRule(_GraphRule):
    rule_id = "G006"
    description = ("Dependency trace anomaly: wrong-terminal ejection or a "
                   "truncated trace")

    def check(self, ctx: LintContext):
        graph = ctx.graph()
        seen: Set[str] = set()
        findings = []
        for message in graph.trace_warnings:
            if message in seen:
                continue
            seen.add(message)
            findings.append(
                Finding(
                    "G006",
                    Severity.WARNING,
                    message,
                    config_path="network",
                )
            )
        return findings
