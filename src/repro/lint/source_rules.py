"""Source-file lint: one parsed-source model behind every per-file rule.

The determinism (D), dataflow (E) and shard-isolation (P006, P008)
rules all look at the Python files handed to ``sslint``.  Each file
becomes one :class:`SourceFile`: opened and parsed once, walked once
to record the *facts* the rules report, and every rule is a table row
that turns its facts into findings.  The scanned code is never
imported or executed, and the matching is deliberately heuristic:
names like ``call_at``, ``_credits`` or ``.sink`` are matched
structurally, trading a small false-positive surface (warnings
wherever the pattern has legitimate uses) for zero-setup coverage.

* **Determinism** -- runs are bit-reproducible only while randomness
  flows from ``RandomManager`` and time from the event queue: D001
  module-global RNG use, D002 wall-clock reads, D003 module-level state
  written from a function (``global`` anywhere, or a component method
  mutating a module-level container: every sweep worker and shard
  process has its own copy), D004 lambdas handed to a sweep.  D005 is
  the one runtime check: it pickles the payload a parallel sweep ships.
* **Dataflow** -- static twins of the :mod:`repro.sanitize` checks:
  E001 a file that does not parse (reported once, skipped by every
  other rule), E003 scheduling at ``*.tick`` with default/zero epsilon,
  E004 a constant epsilon outside ``[0, 2**20)``, E005 a device's flat
  credit lists written from outside the device, E006 the engine-owned
  ``Event.fired``/``cancelled`` written outside ``repro/core``.
* **Shard isolation** -- P006 a component method reaching into a peer
  by direct reference (``channel.sink.x``, ``network.routers[j].x``),
  P008 an event scheduled onto another component's handler.  The
  S-rules prove the interprocedural versions.
"""

from __future__ import annotations

import ast
import operator
import os
import pickle
from typing import Dict, Iterable, List, Optional, Tuple

from repro import factory
from repro.lint.callgraph import (
    CONSTRUCTION_METHODS,
    MUTATORS,
    REGISTRY_ATTRS,
    ModuleState,
    dotted_name,
    parse_source,
    unparse,
)
from repro.lint.findings import Finding, Severity
from repro.lint.rules import (
    DATAFLOW_LAYER,
    DETERMINISM_LAYER,
    PARTITION_LAYER,
    LintContext,
    LintRule,
    declare_rules,
)

# Module-global RNG entry points (both stdlib and legacy numpy).  The
# seeded-construction entry points are deliberately excluded.
_RANDOM_SAFE = {
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.RandomState",
}

_TIME_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: scheduling methods: positional index of their (absolute time,
#: epsilon, handler) arguments.  ``schedule`` takes a relative delay and
#: auto-bumps epsilon at delay 0, so it has no time argument to check;
#: ``add_event`` takes a built Event, not a handler.
_SCHED_ARGS = {
    "call_at": (0, 3, 1),
    "schedule": (None, 1, 0),
    "schedule_at": (1, 2, 0),
    "add_event": (1, 2, None),
}

_EPSILON_LIMIT = 1 << 20  # mirrors core/simulator.py EPSILON_BITS

#: A device's flat credit lists (E005) and Event engine fields (E006).
_CREDIT_INTERNALS = {"_credits", "_credit_capacity"}
_EVENT_ENGINE_FIELDS = {"fired", "cancelled"}
#: the engine package owns the Event fields it polices.
_ENGINE_PACKAGE = ("repro", "core")

#: Attribute names that conventionally hold a *peer component*
#: reference; reading past them reaches across a shard boundary.
_PEER_ATTRS = {"sink", "peer", "neighbor", "downstream", "upstream",
               "remote"}


def _argument(call: ast.Call, position: Optional[int],
              keywords: set) -> Optional[ast.expr]:
    """The argument passed at ``position`` or under one of ``keywords``;
    None when omitted, or when the method takes none (no position)."""
    if position is None:
        return None
    for keyword in call.keywords:
        if keyword.arg in keywords:
            return keyword.value
    return call.args[position] if position < len(call.args) else None


#: the binary operators constant epsilons are written with.
_FOLDABLE = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.LShift: operator.lshift,
    ast.Pow: operator.pow,
}


def _const_int(node: Optional[ast.expr]) -> Optional[int]:
    """Fold the tiny constant-expression grammar epsilons are written in:
    plain ints, unary +/-, and the arithmetic/shift operators (so
    ``epsilon=1 << 20`` and ``epsilon=-1`` are still seen as constants).
    """
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int) and not isinstance(node.value, bool):
            return node.value
    elif isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        value = _const_int(node.operand)
        if value is not None:
            return -value if isinstance(node.op, ast.USub) else value
    elif isinstance(node, ast.BinOp) and type(node.op) in _FOLDABLE:
        left = _const_int(node.left)
        right = _const_int(node.right)
        if left is not None and right is not None:
            try:
                return _FOLDABLE[type(node.op)](left, right)
            except (ArithmeticError, ValueError):
                pass  # 1 << -1, 0 ** -1, ...: not a usable constant
    return None


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _is_component_method(node: ast.AST) -> bool:
    """A class-body ``def`` the event loop can drive on a component."""
    return (
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in CONSTRUCTION_METHODS
        and bool(node.args.args)
        and node.args.args[0].arg == "self"
    )


class SourceFile:
    """One lint target: its tree (or parse error) and its rule facts.

    ``facts`` maps a rule id to ``(line, *message arguments)`` tuples in
    source order; a file that does not parse has the single fact
    ``E001: (None, error)``.
    """

    def __init__(self, path: str):
        self.path = path
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[str] = None
        #: local name -> imported dotted name.
        self.aliases: Dict[str, str] = {}
        self.state: Optional[ModuleState] = None
        self.facts: Dict[str, List[tuple]] = {}
        try:
            self.tree = parse_source(path, reuse=False)
        except (OSError, SyntaxError, ValueError) as exc:
            self.parse_error = str(exc)
            self._fact("E001", None, self.parse_error)
            return
        self.state = ModuleState(self.tree)
        parts = os.path.realpath(path).split(os.sep)
        self._engine_file = _ENGINE_PACKAGE in zip(parts, parts[1:])
        #: (line, dotted callee as written); resolved through the
        #: aliases once the walk has seen every import.
        self._called: List[Tuple[int, str]] = []
        self._walk()
        for line, name in self._called:
            head, _, rest = name.partition(".")
            head = self.aliases.get(head, head)
            name = f"{head}.{rest}" if rest else head
            if (
                name.startswith(("random.", "numpy.random."))
                and name not in _RANDOM_SAFE
            ):
                self._fact("D001", line, name)
            elif name in _TIME_CALLS:
                self._fact("D002", line, name)

    def _fact(self, rule_id: str, line: Optional[int], *args) -> None:
        self.facts.setdefault(rule_id, []).append((line, *args))

    def _module_write(self, line: int, what: str) -> None:
        """D003, once per line however many writes the line makes."""
        if all(line != seen for seen, _ in self.facts.get("D003", ())):
            self._fact("D003", line, what)

    # -- the walk ------------------------------------------------------------

    def _walk(self) -> None:
        """Visit every node once, in source order, knowing whether it
        sits inside a component method (P006/P008 and the container
        half of D003 only apply there)."""
        stack: List[Tuple[ast.AST, bool]] = [(self.tree, False)]
        while stack:
            node, in_method = stack.pop()
            if isinstance(node, ast.Import):
                for item in node.names:
                    local = item.asname or item.name.split(".")[0]
                    self.aliases[local] = item.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for item in node.names:
                    self.aliases[item.asname or item.name] = (
                        f"{node.module}.{item.name}"
                    )
            elif isinstance(node, ast.Global):
                self._module_write(
                    node.lineno, f"`global {', '.join(node.names)}`"
                )
            elif isinstance(node, ast.Call):
                self._call(node, in_method)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._store(target, node.lineno, in_method)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                self._store(node.target, node.lineno, in_method)
            elif isinstance(node, ast.Attribute) and in_method:
                self._peer_reach(node)
            in_class = isinstance(node, ast.ClassDef)
            children = [
                (child, in_method
                 or (in_class and _is_component_method(child)))
                for child in ast.iter_child_nodes(node)
            ]
            stack.extend(reversed(children))

    def _call(self, call: ast.Call, in_method: bool) -> None:
        func = call.func
        name = dotted_name(func)
        if name is not None:
            self._called.append((call.lineno, name))
        # D004: lambdas handed to a sweep cannot be pickled to workers.
        for keyword in call.keywords:
            if keyword.arg == "collect" and isinstance(
                keyword.value, ast.Lambda
            ):
                self._fact("D004", keyword.value.lineno,
                           "lambda passed as collect=")
        simple = name.rsplit(".", 1)[-1] if name else None
        if simple is not None and "sweep" in simple.lower():
            for arg in call.args:
                if isinstance(arg, ast.Lambda):
                    self._fact("D004", arg.lineno,
                               f"lambda passed to {simple}()")
        if not isinstance(func, ast.Attribute):
            return
        if (
            in_method
            and func.attr in MUTATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.state.mutables
        ):
            self._module_write(
                call.lineno, f"`{func.value.id}.{func.attr}()`"
            )
        if func.attr not in _SCHED_ARGS:
            return
        method = func.attr
        time_pos, epsilon_pos, handler_pos = _SCHED_ARGS[method]
        epsilon = _argument(call, epsilon_pos, {"epsilon"})
        epsilon_value = _const_int(epsilon)
        if epsilon_value is not None and not (
            0 <= epsilon_value < _EPSILON_LIMIT
        ):
            self._fact("E004", call.lineno, method, epsilon_value)
        time_arg = _argument(call, time_pos, {"time", "tick"})
        if (
            isinstance(time_arg, ast.Attribute)
            and time_arg.attr == "tick"
            and (epsilon is None or epsilon_value == 0)
        ):
            self._fact("E003", call.lineno, method, unparse(time_arg))
        handler = _argument(call, handler_pos, {"handler"})
        if (
            in_method
            and isinstance(handler, ast.Attribute)
            and not _is_self(handler.value)
        ):
            self._fact("P008", call.lineno, unparse(handler))

    def _store(self, target: ast.expr, line: int, in_method: bool) -> None:
        # `device._credits[o] = x` writes through a Subscript whose
        # value is the protected Attribute; unwrap to find it.
        node = target
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            if _is_self(node.value):
                # The owning class maintaining its own fields is the API.
                return
            if node.attr in _CREDIT_INTERNALS:
                self._fact("E005", line, unparse(target))
            elif node.attr in _EVENT_ENGINE_FIELDS and not self._engine_file:
                self._fact("E006", line, unparse(target))
        elif (
            in_method
            and node is not target
            and isinstance(node, ast.Name)
            and node.id in self.state.mutables
        ):
            self._module_write(line, f"subscript write to `{node.id}`")

    def _peer_reach(self, node: ast.Attribute) -> None:
        # <expr>.<peer attr>.<anything>, or
        # <expr>.routers[j].<anything> / .interfaces[j].<anything>
        reached, names = node.value, _PEER_ATTRS
        if isinstance(reached, ast.Subscript):
            reached, names = reached.value, REGISTRY_ATTRS
        if isinstance(reached, ast.Attribute) and reached.attr in names:
            self._fact("P006", node.lineno, unparse(node))


# -- the rules: one table row each -------------------------------------------


def _check(rule: LintRule, ctx: LintContext) -> List[Finding]:
    return [
        Finding(
            rule.rule_id,
            rule.severity,
            rule.template.format(*args),
            location=source.path if line is None else f"{source.path}:{line}",
        )
        for source in ctx.sources()
        for line, *args in source.facts.get(rule.rule_id, ())
    ]


_WARNING, _ERROR = Severity.WARNING, Severity.ERROR

declare_rules(DETERMINISM_LAYER, _check, [
    ("D001", _WARNING,
     "Module-global RNG use (random.* / legacy numpy.random.*) breaks "
     "seeded reproducibility; use RandomManager generators",
     "call to {}() uses module-global RNG state; draw from a "
     "RandomManager generator instead"),
    ("D002", _WARNING,
     "Wall-clock reads (time.time, datetime.now, ...) make model "
     "behavior timing-dependent; use simulator ticks",
     "call to {}() reads the wall clock; simulation behavior must "
     "depend only on simulator ticks"),
    ("D003", _WARNING,
     "Module-level state written from a function (`global`, or a "
     "component method mutating a module-level container); such state "
     "is silently per-process under parallel sweeps and partitioned runs",
     "{} mutates module-level state; under a parallel sweep each worker "
     "process gets its own copy and the mutations are lost"),
    ("D004", _WARNING,
     "Lambda handed to a sweep cannot be pickled to worker processes; "
     "use a module-level function",
     "{}: lambdas cannot be pickled to sweep worker processes; define a "
     "module-level function instead"),
])

declare_rules(DATAFLOW_LAYER, _check, [
    ("E001", _WARNING,
     "Source file could not be parsed; every source rule skipped it",
     "could not parse source file (skipped): {}"),
    ("E003", _WARNING,
     "Same-tick scheduling with default/zero epsilon raises at runtime; "
     "pass a phase epsilon or use Component.schedule(delay=0, ...)",
     "{}({}, ...) schedules at the current tick without increasing "
     "epsilon; inside a handler this raises SimulationError "
     "(causality), so pass an explicit phase epsilon (repro.net.phases) "
     "or Component.schedule() with delay 0, which auto-bumps epsilon"),
    ("E004", _ERROR,
     "Epsilon outside [0, 2**20): overflows the packed time key bound "
     "enforced by the simulator",
     "{}(..., epsilon={}) is outside the packed-key range [0, 2**20); "
     "the simulator raises SimulationError on this at runtime (epsilons "
     "order phases within a tick, they do not carry time)"),
    ("E005", _ERROR,
     "Credit counts mutated outside the owning device; use "
     "take_credit()/give_credit()",
     "write to `{}` bypasses take_credit()/give_credit(); direct "
     "mutation of credit internals skips the underflow/overflow checks "
     "and silently breaks per-link credit conservation (the CreditSan "
     "invariant)"),
    ("E006", _ERROR,
     "Event engine-owned field (fired/cancelled) written by model code; "
     "use Event.cancel() and fresh schedules",
     "write to `{}` corrupts the event lifecycle the executer depends "
     "on; cancel with Event.cancel() and schedule a new event instead "
     "of resurrecting this one"),
])

declare_rules(PARTITION_LAYER, _check, [
    ("P006", _WARNING,
     "Handler reaches into a peer component by direct reference "
     "(channel.sink.*, self.peer.*, network.routers[j].*) instead of "
     "sending on a channel",
     "`{}` touches a peer component through a direct reference; under "
     "partitioned simulation the peer lives in another shard and this "
     "reads/writes a stale local copy -- send on a channel instead"),
    ("P008", _WARNING,
     "Event scheduled onto another component's handler; cross-shard "
     "work must travel as a channel message, not a direct event "
     "insertion",
     "schedules `{}`, a handler bound to another component; if that "
     "component lands in another shard the event fires on the wrong "
     "process -- send a flit/credit on a channel and let the peer "
     "schedule itself"),
])


# -- D005: runtime payload pickling ------------------------------------------


def _pickle_failure(label: str, value) -> Optional[str]:
    try:
        pickle.dumps(value)
        return None
    except Exception as exc:  # pickle raises a zoo of exception types
        return f"{label} is not picklable ({type(exc).__name__}: {exc})"


@factory.register(LintRule, "D005")
class SweepPayloadRule(LintRule):
    rule_id = "D005"
    layer = DETERMINISM_LAYER
    description = ("Parallel-sweep payload fails pickling: workers would "
                   "silently fall back to inline (serial) execution")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        sweep = ctx.sweep
        if sweep is None:
            return []
        findings = []
        parts = [
            ("sweep base_config", sweep.base_config),
            ("sweep collect function "
             f"{getattr(sweep.collect, '__qualname__', sweep.collect)!r}",
             sweep.collect),
            ("sweep max_time", sweep.max_time),
        ]
        jobs = sweep.jobs or sweep.generate_jobs()
        if jobs:
            parts.append((f"job {jobs[0].job_id!r} overrides",
                          jobs[0].overrides))
        for label, value in parts:
            failure = _pickle_failure(label, value)
            if failure is not None:
                findings.append(
                    Finding(
                        "D005",
                        Severity.ERROR,
                        f"{failure}; a parallel sweep cannot ship this to "
                        f"worker processes (the task runner would silently "
                        f"run every job inline)",
                        config_path=f"sweep:{sweep.name}",
                    )
                )
        return findings
