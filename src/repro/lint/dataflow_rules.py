"""Dataflow-layer lint (E001, E003..E006): model-contract checks over source.

The runtime sanitizers (:mod:`repro.sanitize`) catch contract
violations *while they corrupt a run*; the E-rules catch the same
hazard patterns in model source before anything runs.  They are pure
AST checks -- the scanned code is never imported or executed -- and
deliberately heuristic: names like ``schedule``/``call_at`` and
``_credits`` are matched structurally, trading a small false-positive
surface (warnings, not errors, wherever the pattern has legitimate
uses) for zero-setup coverage of user model code.

The contracts, and who enforces them at runtime:

* **Parse errors** (E001, warning) -- a source file the layer could
  not parse is reported and skipped.
* **Epsilon discipline** (E003 warning, E004 error) -- scheduling at
  the current tick requires a strictly increasing epsilon, and epsilon
  must stay below 2**20 (it packs into the time key;
  ``core/simulator.py``).  E003 flags ``*.tick``-based same-tick
  scheduling with a default/zero epsilon; E004 flags constants outside
  the packed range, which raise :class:`SimulationError` at runtime.
* **Credit API** (E005, error) -- credit counts may only move through
  ``CreditTracker.take``/``give``; poking ``_credits``/``_capacity``
  from outside the tracker is exactly the silent accounting gap
  CreditSan exists to catch.
* **Event engine fields** (E006, error) -- ``fired`` and ``cancelled``
  belong to the engine; models writing them corrupt the event
  lifecycle EventSan polices.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from repro import factory
from repro.lint.findings import Finding, Severity
from repro.lint.rules import DATAFLOW_LAYER, LintContext, LintRule

#: the scheduling methods whose time arguments E003/E004 check.
SCHED_METHODS = {"call_at", "schedule", "schedule_at", "add_event"}
#: positional index of the absolute-time argument (``schedule`` takes a
#: relative delay and auto-bumps epsilon at delay 0, so it is exempt
#: from the same-tick check).
_TIME_ARG_POS = {"call_at": 0, "schedule_at": 1, "add_event": 1}
_TIME_ARG_KEYWORDS = {"time", "tick"}
#: positional index of the epsilon argument per scheduling method.
_EPSILON_ARG_POS = {"call_at": 3, "schedule": 1, "schedule_at": 2,
                    "add_event": 2}

_EPSILON_LIMIT = 1 << 20  # mirrors core/simulator.py EPSILON_BITS

#: CreditTracker internals (E005) and Event engine fields (E006).
_CREDIT_INTERNALS = {"_credits", "_capacity"}
_EVENT_ENGINE_FIELDS = {"fired", "cancelled"}


def _sched_method(node: ast.expr) -> Optional[str]:
    """The scheduling-method name when ``node`` is ``<expr>.sched(...)``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in SCHED_METHODS:
            return node.func.attr
    return None


def _argument(call: ast.Call, position: int, keywords: set) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg in keywords:
            return keyword.value
    if position < len(call.args):
        return call.args[position]
    return None


def _const_int(node: Optional[ast.expr]) -> Optional[int]:
    """Fold the tiny constant-expression grammar epsilons are written in:
    plain ints, unary +/-, and the arithmetic/shift operators (so
    ``epsilon=1 << 20`` and ``epsilon=-1`` are still seen as constants).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int) and not isinstance(node.value, bool):
            return node.value
        return None
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        value = _const_int(node.operand)
        if value is None:
            return None
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.BinOp):
        left = _const_int(node.left)
        right = _const_int(node.right)
        if left is None or right is None:
            return None
        try:
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.LShift):
                return left << right
            if isinstance(node.op, ast.Pow):
                return left**right
        except (OverflowError, ValueError):
            return None
    return None


def _unparse(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is best-effort context
        return "<expr>"


class DataflowScan:
    """One parsed source file plus its categorized dataflow hazards."""

    def __init__(self, path: str):
        self.path = path
        self.parse_error: Optional[str] = None
        #: (line, method, time expression) same-tick scheduling with
        #: default/zero epsilon.
        self.same_tick_zero_eps: List[Tuple[int, str, str]] = []
        #: (line, method, epsilon value) epsilon outside [0, 2**20).
        self.bad_epsilon: List[Tuple[int, str, int]] = []
        #: (line, target) writes to CreditTracker internals.
        self.credit_mutations: List[Tuple[int, str]] = []
        #: (line, target) writes to Event engine-owned fields.
        self.event_field_writes: List[Tuple[int, str]] = []
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except (OSError, SyntaxError, ValueError) as exc:
            self.parse_error = str(exc)
            return
        self._scan(tree)

    # -- scanning ------------------------------------------------------------

    def _scan(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._scan_protected_write(target, node.lineno)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                self._scan_protected_write(node.target, node.lineno)
            elif isinstance(node, ast.Call):
                self._scan_call(node)

    def _scan_protected_write(self, target: ast.expr, line: int) -> None:
        """E005/E006: the written location reaches a protected field."""
        # `tracker._credits[vc] = x` writes through a Subscript whose
        # value is the protected Attribute; unwrap to find it.
        node = target
        while isinstance(node, ast.Subscript):
            node = node.value
        if not isinstance(node, ast.Attribute):
            return
        base_is_self = (
            isinstance(node.value, ast.Name) and node.value.id == "self"
        )
        if base_is_self:
            # The owning class maintaining its own fields is the API.
            return
        if node.attr in _CREDIT_INTERNALS:
            self.credit_mutations.append((line, _unparse(target)))
        elif node.attr in _EVENT_ENGINE_FIELDS:
            self.event_field_writes.append((line, _unparse(target)))

    def _scan_call(self, call: ast.Call) -> None:
        method = _sched_method(call)
        if method is None:
            return
        epsilon = _argument(
            call, _EPSILON_ARG_POS[method], {"epsilon"}
        )
        epsilon_value = _const_int(epsilon)
        if epsilon_value is not None and not (
            0 <= epsilon_value < _EPSILON_LIMIT
        ):
            self.bad_epsilon.append((call.lineno, method, epsilon_value))
        if method in _TIME_ARG_POS:
            time_arg = _argument(
                call, _TIME_ARG_POS[method], _TIME_ARG_KEYWORDS
            )
            if (
                isinstance(time_arg, ast.Attribute)
                and time_arg.attr == "tick"
                and (epsilon is None or epsilon_value == 0)
            ):
                self.same_tick_zero_eps.append(
                    (call.lineno, method, _unparse(time_arg))
                )


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


class _DataflowRule(LintRule):
    layer = DATAFLOW_LAYER

    def _clean_scans(self, ctx: LintContext):
        return [
            scan for scan in ctx.dataflow_scans() if scan.parse_error is None
        ]


@factory.register(LintRule, "E001")
class ParseErrorRule(_DataflowRule):
    rule_id = "E001"
    description = "Source file could not be parsed; the dataflow layer skipped it"

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return [
            Finding(
                "E001",
                Severity.WARNING,
                f"could not parse source file (skipped): {scan.parse_error}",
                location=scan.path,
            )
            for scan in ctx.dataflow_scans()
            if scan.parse_error is not None
        ]


@factory.register(LintRule, "E003")
class SameTickEpsilonRule(_DataflowRule):
    rule_id = "E003"
    description = ("Same-tick scheduling with default/zero epsilon raises "
                   "at runtime; pass a phase epsilon or use "
                   "Component.schedule(delay=0, ...)")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return [
            Finding(
                "E003",
                Severity.WARNING,
                f"{method}({time_expr}, ...) schedules at the current tick "
                f"without increasing epsilon; inside a handler this raises "
                f"SimulationError (causality), so pass an explicit phase "
                f"epsilon (repro.net.phases) or Component.schedule() with "
                f"delay 0, which auto-bumps epsilon",
                location=f"{scan.path}:{line}",
            )
            for scan in self._clean_scans(ctx)
            for line, method, time_expr in scan.same_tick_zero_eps
        ]


@factory.register(LintRule, "E004")
class EpsilonRangeRule(_DataflowRule):
    rule_id = "E004"
    description = ("Epsilon outside [0, 2**20): overflows the packed time "
                   "key bound enforced by the simulator")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return [
            Finding(
                "E004",
                Severity.ERROR,
                f"{method}(..., epsilon={value}) is outside the packed-key "
                f"range [0, 2**20); the simulator raises SimulationError on "
                f"this at runtime (epsilons order phases within a tick, "
                f"they do not carry time)",
                location=f"{scan.path}:{line}",
            )
            for scan in self._clean_scans(ctx)
            for line, method, value in scan.bad_epsilon
        ]


@factory.register(LintRule, "E005")
class CreditInternalsRule(_DataflowRule):
    rule_id = "E005"
    description = ("Credit counts mutated outside the repro.net.credit API; "
                   "use CreditTracker.take()/give()")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return [
            Finding(
                "E005",
                Severity.ERROR,
                f"write to `{target}` bypasses CreditTracker.take()/give(); "
                f"direct mutation of credit internals skips the "
                f"underflow/overflow checks and silently breaks per-link "
                f"credit conservation (the CreditSan invariant)",
                location=f"{scan.path}:{line}",
            )
            for scan in self._clean_scans(ctx)
            for line, target in scan.credit_mutations
        ]


@factory.register(LintRule, "E006")
class EventEngineFieldsRule(_DataflowRule):
    rule_id = "E006"
    description = ("Event engine-owned field (fired/cancelled) written by "
                   "model code; use Event.cancel() and fresh schedules")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return [
            Finding(
                "E006",
                Severity.ERROR,
                f"write to `{target}` corrupts the event lifecycle the "
                f"executer depends on; cancel with Event.cancel() and "
                f"schedule a new event instead of resurrecting this one",
                location=f"{scan.path}:{line}",
            )
            for scan in self._clean_scans(ctx)
            for line, target in scan.event_field_writes
        ]
