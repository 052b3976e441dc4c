"""Config-layer lint rules (C001..C009).

C001..C005 come out of a single declarative schema walk
(:func:`walk_schema`); C006..C009 are cross-field rules connecting
settings that live in different blocks but must agree -- the VC counts
shared by routers, channels, and routing algorithms, and the credit /
buffer-depth arithmetic of the paper's credit-accounting case study
(§VI-B) turned into a static check.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro import factory, models
from repro.config.spec import Block, KeySpec, declared, declares, spec_of
from repro.config.suggest import closest
from repro.lint.findings import Finding, Severity
from repro.lint.rules import CONFIG_LAYER, LintContext, LintRule


def _join(path: str, key: Any) -> str:
    return f"{path}.{key}" if path else str(key)


# ---------------------------------------------------------------------------
# the schema walk (shared by rules C001..C005)
# ---------------------------------------------------------------------------


def walk_schema(raw: dict) -> Iterator[Finding]:
    """Validate ``raw`` against the models' settings declarations,
    from :class:`~repro.sim.Simulation` down through the factory.

    Yields findings tagged C001 (unknown key), C002 (wrong type),
    C003 (bad value), C004 (missing required setting/block), and
    C005 (unknown model name).
    """
    from repro.sim import Simulation

    models.load_all()  # populate the factory before validating selectors
    yield from _walk_block(Block(Simulation), raw, "")


def _walk_block(block: Block, data: Any, path: str) -> Iterator[Finding]:
    if block.many:
        if not isinstance(data, list):
            yield Finding(
                "C002",
                Severity.ERROR,
                f"expected a list of blocks, got {type(data).__name__}",
                config_path=path or "<root>",
            )
            return
        for index, item in enumerate(data):
            yield from _walk_one(block, item, _join(path, index))
        return
    yield from _walk_one(block, data, path)


def _walk_one(block: Block, data: Any, path: str) -> Iterator[Finding]:
    if not isinstance(data, dict):
        yield Finding(
            "C002",
            Severity.ERROR,
            f"expected a settings block (dict), got {type(data).__name__}",
            config_path=path or "<root>",
        )
        return

    entries = declared(block.model)
    known = set(entries)
    open_block = False
    if block.selector is not None:
        selector, base = block.selector, block.model
        known.add(selector)
        model = data.get(selector, block.default)
        if model is None:
            yield Finding(
                "C004",
                Severity.ERROR,
                f"missing required setting {_join(path, selector)!r} "
                f"(selects the {base.__name__} model)",
                config_path=_join(path, selector),
            )
        elif not isinstance(model, str):
            yield Finding(
                "C002",
                Severity.ERROR,
                f"model selector must be a string, got {model!r}",
                config_path=_join(path, selector),
            )
        elif not factory.is_registered(base, model):
            registered = factory.names(base)
            match = closest(model, registered)
            yield Finding(
                "C005",
                Severity.ERROR,
                f"unknown {base.__name__} model {model!r}; "
                f"known: {registered}",
                config_path=_join(path, selector),
                suggestion=f"did you mean {match!r}?" if match else None,
            )
        else:
            cls = factory.lookup(base, model)
            entries = declared(cls)
            known |= set(entries)
            # A model that declares nothing: its keys are unknowable.
            open_block = not declares(cls)

    if not open_block:
        for key in data:
            if key not in known:
                match = closest(key, known)
                yield Finding(
                    "C001",
                    Severity.WARNING,
                    f"unknown setting {_join(path, key)!r} "
                    f"(silently ignored by the simulator)",
                    config_path=_join(path, key),
                    suggestion=f"did you mean {match!r}?" if match else None,
                )

    blocks = {k: v for k, v in entries.items() if isinstance(v, Block)}
    for key, child in blocks.items():
        if child.required and key not in data:
            yield Finding(
                "C004",
                Severity.ERROR,
                f"missing required settings block {_join(path, key)!r}",
                config_path=_join(path, key),
            )

    for key, spec in entries.items():
        if isinstance(spec, Block):
            continue
        if key not in data:
            if spec.required:
                yield Finding(
                    "C004",
                    Severity.ERROR,
                    f"missing required setting {_join(path, key)!r}",
                    config_path=_join(path, key),
                )
            continue
        yield from _check_value(spec, data[key], _join(path, key))

    for key, child in blocks.items():
        if key in data:
            yield from _walk_block(child, data[key], _join(path, key))


def _check_value(spec: KeySpec, value: Any, path: str) -> Iterator[Finding]:
    problem = spec.problem(value)
    if problem is None:
        return
    kind, message = problem
    suggestion = None
    if spec.choices is not None and kind == "value":
        match = closest(str(value), spec.choices)
        suggestion = f"did you mean {match!r}?" if match else None
    yield Finding("C002" if kind == "type" else "C003", Severity.ERROR, message,
                  config_path=path, suggestion=suggestion)


# ---------------------------------------------------------------------------
# raw-config accessors shared by the cross-field rules
# ---------------------------------------------------------------------------


def _block(raw: dict, *path: str) -> dict:
    node: Any = raw
    for key in path:
        if not isinstance(node, dict):
            return {}
        node = node.get(key, {})
    return node if isinstance(node, dict) else {}


def _value(raw: dict, *path: str, default: Any = None) -> Any:
    node: Any = raw
    for key in path[:-1]:
        if not isinstance(node, dict):
            return default
        node = node.get(key, {})
    if not isinstance(node, dict):
        return default
    return node.get(path[-1], default)


def _setting(block: dict, model: type, key: str) -> Any:
    """``block``'s value for ``key``, else ``model``'s declared default."""
    return block.get(key, spec_of(model, key).default)


def _is_uint(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def injection_vcs_for(algorithm: str, num_vcs: int) -> Optional[List[int]]:
    """The VC set a packaged algorithm injects on, or None if unknown."""
    from repro.routing.base import RoutingAlgorithm

    if not factory.is_registered(RoutingAlgorithm, algorithm):
        return None
    cls = factory.lookup(RoutingAlgorithm, algorithm)
    try:
        return list(cls.injection_vcs(num_vcs))
    except Exception:  # noqa: BLE001 - a broken classmethod is not our finding
        return None


# ---------------------------------------------------------------------------
# schema-walk rules
# ---------------------------------------------------------------------------


class _SchemaWalkRule(LintRule):
    """Base for rules whose findings come out of the shared schema walk."""

    layer = CONFIG_LAYER

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return [f for f in ctx.schema_findings() if f.rule_id == self.rule_id]


@factory.register(LintRule, "C001")
class UnknownKeyRule(_SchemaWalkRule):
    rule_id = "C001"
    description = ("Unknown setting key: the simulator would silently ignore "
                   "it (did-you-mean suggestion included)")


@factory.register(LintRule, "C002")
class WrongTypeRule(_SchemaWalkRule):
    rule_id = "C002"
    description = "Setting value has the wrong type for its key"


@factory.register(LintRule, "C003")
class BadValueRule(_SchemaWalkRule):
    rule_id = "C003"
    description = "Setting value out of range or not among the allowed choices"


@factory.register(LintRule, "C004")
class MissingRequiredRule(_SchemaWalkRule):
    rule_id = "C004"
    description = "Required setting or settings block is missing"


@factory.register(LintRule, "C005")
class UnknownModelRule(_SchemaWalkRule):
    rule_id = "C005"
    description = ("Model selector names no registered factory model "
                   "(did-you-mean suggestion over the registry)")


# ---------------------------------------------------------------------------
# cross-field rules
# ---------------------------------------------------------------------------


@factory.register(LintRule, "C006")
class RoutingTopologyRule(LintRule):
    rule_id = "C006"
    layer = CONFIG_LAYER
    description = ("Routing algorithm is not compatible with the configured "
                   "topology")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        from repro.routing.base import RoutingAlgorithm, topology_mismatch

        raw = ctx.raw
        topology = _value(raw, "network", "topology")
        algorithm = _value(raw, "network", "routing", "algorithm")
        if not isinstance(topology, str) or not isinstance(algorithm, str):
            return []  # C004/C002 already cover the malformed cases
        models.load_all()
        if not factory.is_registered(RoutingAlgorithm, algorithm):
            return []  # C005 covers it
        problem = topology_mismatch(algorithm, topology)
        if problem is None:
            return []
        return [Finding("C006", Severity.ERROR, problem,
                        config_path="network.routing.algorithm")]


@factory.register(LintRule, "C007")
class VcConsistencyRule(LintRule):
    rule_id = "C007"
    layer = CONFIG_LAYER
    description = ("VC counts inconsistent across routers, channels, and the "
                   "routing algorithm's VC discipline")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        from repro.config.settings import Settings
        from repro.net.network import Network
        from repro.routing.base import RoutingAlgorithm

        raw = ctx.raw
        findings: List[Finding] = []
        network = _block(raw, "network")
        num_vcs = _setting(network, Network, "num_vcs")
        algorithm = _value(raw, "network", "routing", "algorithm")
        if not _is_uint(num_vcs) or num_vcs < 1:
            return []  # C002/C003 cover it
        if isinstance(algorithm, str):
            models.load_all()
            if factory.is_registered(RoutingAlgorithm, algorithm):
                problem = factory.lookup(
                    RoutingAlgorithm, algorithm
                ).vc_count_error(num_vcs, Settings(network, "network"))
                if problem is not None:
                    findings.append(
                        Finding(
                            "C007",
                            Severity.ERROR,
                            f"{algorithm} {problem}",
                            config_path="network.num_vcs",
                        )
                    )
        injection_vcs = _value(raw, "network", "interface", "injection_vcs")
        if isinstance(injection_vcs, list) and all(
            _is_uint(v) for v in injection_vcs
        ):
            out_of_range = [v for v in injection_vcs if v >= num_vcs]
            if out_of_range:
                findings.append(
                    Finding(
                        "C007",
                        Severity.ERROR,
                        f"interface injection VCs {out_of_range} out of range "
                        f"[0, {num_vcs})",
                        config_path="network.interface.injection_vcs",
                    )
                )
            elif isinstance(algorithm, str):
                allowed = injection_vcs_for(algorithm, num_vcs)
                if allowed is not None:
                    outside = sorted(set(injection_vcs) - set(allowed))
                    if outside:
                        findings.append(
                            Finding(
                                "C007",
                                Severity.WARNING,
                                f"interface injects on VCs {outside}, outside "
                                f"the injection class {allowed} declared by "
                                f"{algorithm!r}; its deadlock-avoidance "
                                f"scheme may be void",
                                config_path="network.interface.injection_vcs",
                            )
                        )
        return findings


@factory.register(LintRule, "C008")
class CreditBufferDepthRule(LintRule):
    rule_id = "C008"
    layer = CONFIG_LAYER
    description = ("Packet-granularity flow control needs whole-packet credit "
                   "up front: max_packet_size must not exceed the downstream "
                   "buffer depth (paper §VI-B/§VI-C as a static check)")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        from repro.net.interface import StandardInterface
        from repro.router.base import Router
        from repro.router.crossbar_scheduler import (
            PACKET_BUFFER,
            CrossbarScheduler,
        )
        from repro.router.input_output_queued import InputOutputQueuedRouter

        raw = ctx.raw
        router = _block(raw, "network", "router")
        interface = _block(raw, "network", "interface")
        flow_control = _setting(_block(router, "crossbar_scheduler"),
                                CrossbarScheduler, "flow_control")
        if flow_control != PACKET_BUFFER:
            return []
        architecture = router.get("architecture")
        max_packet = _setting(interface, StandardInterface, "max_packet_size")
        if not _is_uint(max_packet):
            return []
        # The credit pool the crossbar checks against a whole packet:
        # IQ bids drain toward the downstream router's input buffer (or
        # the interface's ejection buffer on the last hop); IOQ bids
        # drain into the router's own output queue.
        pools: List[tuple] = []
        if architecture == "input_output_queued":
            depth = _setting(router, InputOutputQueuedRouter, "output_queue_depth")
            pools.append(("network.router.output_queue_depth", depth))
        else:
            depth = _setting(router, Router, "input_queue_depth")
            pools.append(("network.router.input_queue_depth", depth))
            ejection = _setting(interface, StandardInterface,
                                "ejection_buffer_size")
            pools.append(("network.interface.ejection_buffer_size", ejection))
        findings: List[Finding] = []
        for path, depth in pools:
            if not _is_uint(depth):
                continue
            if max_packet > depth:
                findings.append(
                    Finding(
                        "C008",
                        Severity.ERROR,
                        f"packet_buffer flow control requires whole-packet "
                        f"credit: a {max_packet}-flit packet can never fit "
                        f"the {depth}-flit buffer at {path} -- the crossbar "
                        f"would stall such packets forever",
                        config_path=path,
                    )
                )
        return findings


@factory.register(LintRule, "C009")
class EjectionBandwidthDelayRule(LintRule):
    rule_id = "C009"
    layer = CONFIG_LAYER
    description = ("Ejection buffer smaller than the terminal channel's "
                   "bandwidth-delay product caps throughput below line rate")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        from repro.net.interface import StandardInterface
        from repro.net.network import Network

        network = _block(ctx.raw, "network")
        interface = _block(network, "interface")
        block = spec_of(Network, "interface")
        if interface.get(block.selector, block.default) != "standard":
            return []
        ejection = _setting(interface, StandardInterface, "ejection_buffer_size")
        latency = _setting(network, Network, "terminal_channel_latency")
        period = _setting(network, Network, "channel_period")
        if not (_is_uint(ejection) and _is_uint(latency) and _is_uint(period)):
            return []
        if period < 1:
            return []
        # Round trip: flit down (latency) + credit back (latency), at one
        # flit per channel period.
        needed = math.ceil(2 * latency / period)
        if ejection >= needed:
            return []
        return [
            Finding(
                "C009",
                Severity.WARNING,
                f"ejection_buffer_size {ejection} is below the terminal "
                f"channel's bandwidth-delay product ({needed} flits for a "
                f"{latency}-tick channel at one flit per {period} ticks): "
                f"ejection will cap accepted throughput below line rate",
                config_path="network.interface.ejection_buffer_size",
            )
        ]
