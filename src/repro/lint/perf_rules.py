"""Hot-path performance lint: interprocedural H-rules over model classes.

ROADMAP item 1's residual cost is *diffuse*: per-grant model semantics
spread across many small methods, each individually too cheap to show
up in a code review but collectively the gap between the bare engine
(~1.4M events/s) and the full simulator (docs/PERFORMANCE.md "Model
layer").  A profiler samples that cost; this layer *predicts* it from
source, so every model -- including user-registered ones -- gets an
automatic hot-path audit instead of a manual profiling session.

The analysis reuses the interprocedural call-graph engine built for
shard purity (:mod:`repro.lint.callgraph`): starting from the known
per-event entry points (router ``_step``/``receive_flit``, channel
delivery, interface injection, congestion-sensor records), a *heat*
weight in calls per flit-hop (the measured handler census) propagates
through each class's call graph (:func:`~repro.lint.callgraph
.propagate_heat`).  Hazards are flagged **only on provably hot
methods**, each with a ``Class.entry -> helper -> method`` evidence
chain:

* **H001** container allocation that escapes the call (list/dict/set/
  tuple displays, comprehensions, constructor calls stored on ``self``,
  returned, or passed onward) -- one garbage object per event.
* **H002** closure or lambda defined per call -- a fresh function
  object (and cell vars) per event.
* **H003** the same attribute chain loaded repeatedly inside a loop
  body -- bind it to a local before the loop (the classic CPython
  dict-lookup tax; see the IQ ``_step`` drain for the fixed idiom).
* **H004** unguarded string formatting (f-string, ``%``, ``.format``,
  ``print``/logging) on the hot path -- formatting runs even when
  nobody reads the result.  Formatting inside ``raise``/``assert`` or
  under a conditional is exempt.
* **H005** a class instantiated on the hot path lacks ``__slots__``
  somewhere in its MRO, so every instance drags a dict.
* **H006** ``try``/``except`` inside a hot loop body or ``global``
  declared in a hot method (exception-handler setup and global-scope
  writes per iteration).
* **H007** ``isinstance``/``hasattr`` dispatch on a hot path; when the
  factory registry proves the call site monomorphic for the current
  configuration (exactly one registered/selected implementation), the
  branch can be hoisted to construction time.
* **H008** the same pure subexpression (subscript/arithmetic over
  attribute loads) recomputed three or more times inside one hot
  method.

**Profile correlation.**  ``sslint --layer perf --profile out.pstats``
consumes a cProfile dump (``scripts/profile_sim.py`` writes one by
default; ``supersim --pstats-out`` too) and re-ranks findings by
measured cumulative time: statically-hot-but-measured-cold findings
demote to INFO, so the layer reports *ranked, evidenced optimization
targets*, not style noise.

Fingerprints (docs/LINTING.md "Baselines") hash the evidence chain
plus a per-hazard token, never the message or line number, so a
committed baseline survives analyzer evolution and measured-time
drift.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.callgraph import (
    ClassGraph,
    Heat,
    MethodScan,
    ModelTarget,
    dotted_name,
    model_bases,
    model_targets,
    propagate_heat,
    unparse,
)
from repro.lint.findings import Finding, Severity
from repro.lint.rules import (
    PERF_LAYER,
    TARGET_FRAME,
    LintContext,
    LintRule,
    declare_rules,
)

#: Hot entry points per model kind, weighted by the measured handler
#: census (docs/PERFORMANCE.md: ~2 landings and ~0.9 steps per flit-hop
#: on the benchmark workload).  Weights are relative execution
#: frequencies in "calls per flit-hop" units -- they rank, they don't
#: time.
HEAT_ENTRIES: Dict[str, Dict[str, float]] = {
    "router": {
        # land core arrivals (the in-core FIFO drain, formerly one
        # event per flit) + drain + route + allocate + crossbar
        "_step": 5.0,
        "receive_flit": 1.0,    # one per flit-hop
        "receive_credit": 1.0,  # one per returned credit
        "send_flit_out": 1.0,
        "send_credit": 1.0,
    },
    "interface": {
        "_inject_step": 2.0,    # packetization + VC selection per cycle
        "receive_flit": 1.0,    # ejection side
        "receive_credit": 1.0,
        "send_flit": 1.0,
        "send_message": 0.5,    # per message, amortized over flits
    },
    "channel": {
        "send_flit": 1.0,
        "send_credit": 1.0,
        "_launch": 2.0,         # one per flit and one per credit
        "_deliver_item": 1.0,   # per-item hook the landing wheel calls
    },
    "wheel": {
        # One engine event per phase, but the loops run once per item:
        # the landing wheel's per flit and per credit, the step wheel's
        # per device step.
        "_drain": 2.0,
    },
    "sensor": {
        "record": 2.0,          # every credit take/give reports here
        "status": 1.0,          # adaptive routing fans over ports
    },
    "routing": {
        "route": 0.5,           # per packet head, not per flit
        "respond": 0.5,
    },
    "application": {
        "message_generated": 0.25,   # per message
        "_message_delivered": 0.25,
        "on_message_delivered": 0.25,
    },
}

#: Methods below this heat are not audited (construction-time helpers
#: never appear in the heat map at all; this threshold only matters if
#: entry weights below it are ever added).
HOT_THRESHOLD = 0.25

#: Measured cumulative-time fraction below which a statically-hot
#: finding demotes to INFO under ``--profile`` correlation.
COLD_FRACTION = 0.01

#: Constructor names whose calls allocate a container (H001).
_CONTAINER_CALLS = frozenset({
    "list", "dict", "set", "frozenset", "tuple", "deque", "defaultdict",
    "OrderedDict", "Counter", "bytearray",
})

#: Logging-ish call names treated as formatting sinks (H004).
_LOG_CALLS = frozenset({"print"})
_LOG_METHOD_CALLS = frozenset({
    "debug", "info", "warning", "error", "critical", "log",
})

#: AST node types allowed inside a "pure" expression (H008).
_PURE_NODES = (
    ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare, ast.Attribute,
    ast.Subscript, ast.Name, ast.Constant, ast.operator, ast.unaryop,
    ast.boolop, ast.cmpop, ast.expr_context, ast.Load,
)


class PerfSite:
    """One hazard occurrence inside a hot method."""

    __slots__ = ("node", "detail", "token")

    def __init__(self, node: ast.AST, detail: str, token: str):
        self.node = node
        self.detail = detail
        self.token = token

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 0)


class PerfScan(ast.NodeVisitor):
    """Single pass over one hot method body collecting H-rule sites.

    Context is tracked structurally: loop depth (H003/H006), guard
    depth (an ``if``/``while``-guarded site is conditional, exempting
    it from H004), and whether the site sits inside a ``raise`` or
    ``assert`` (error paths are free).
    """

    def __init__(self, method_node: ast.AST, module_name: str):
        self.module_name = module_name
        self.sites: Dict[str, List[PerfSite]] = {
            "H001": [], "H002": [], "H003": [], "H004": [],
            "H005": [], "H006": [], "H007": [], "H008": [],
        }
        self._loop_depth = 0
        self._guard_depth = 0
        self._raise_depth = 0
        #: chains loaded per enclosing loop: list of per-loop Counters.
        self._loop_chain_stack: List[Dict[str, List[ast.AST]]] = []
        #: names (re)bound inside each enclosing loop.
        self._loop_bound_stack: List[Set[str]] = []
        #: maximal pure subexpressions (H008).
        self._pure_counts: Dict[str, List[ast.AST]] = {}
        self._in_pure = False
        #: escaping allocation node ids (assigned while walking parents)
        self._escapes: Dict[int, str] = {}
        body = getattr(method_node, "body", [])
        for stmt in body:
            self.visit(stmt)
        self._flush_h008()

    # -- statement context -------------------------------------------------

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        self._guard_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)
        self._guard_depth -= 1

    def _visit_loop(self, node, iter_nodes, target: Optional[ast.AST]) -> None:
        for sub in iter_nodes:
            self.visit(sub)
        self._loop_depth += 1
        self._loop_chain_stack.append({})
        bound: Set[str] = set()
        if target is not None:
            for name_node in ast.walk(target):
                if isinstance(name_node, ast.Name):
                    bound.add(name_node.id)
        self._loop_bound_stack.append(bound)
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)
        self._loop_depth -= 1
        chains = self._loop_chain_stack.pop()
        bound = self._loop_bound_stack.pop()
        self._flush_h003(chains, bound)

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node, [node.iter], node.target)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node, [node.iter], node.target)

    def visit_While(self, node: ast.While) -> None:
        # The test guards nothing permanently; treat body as looped.
        self._visit_loop(node, [node.test], None)

    def visit_Try(self, node: ast.Try) -> None:
        if self._loop_depth:
            self.sites["H006"].append(PerfSite(
                node,
                "sets up try/except inside a hot loop body; hoist the "
                "handler out of the loop (catching is costly, and the "
                "setup reruns every iteration)",
                "try-in-loop",
            ))
        for stmt in node.body:
            self.visit(stmt)
        self._guard_depth += 1  # handler bodies are error paths
        for handler in node.handlers:
            for stmt in handler.body:
                self.visit(stmt)
        self._guard_depth -= 1
        for stmt in node.orelse + node.finalbody:
            self.visit(stmt)

    def visit_Raise(self, node: ast.Raise) -> None:
        self._raise_depth += 1
        self.generic_visit(node)
        self._raise_depth -= 1

    def visit_Assert(self, node: ast.Assert) -> None:
        self._raise_depth += 1
        self.generic_visit(node)
        self._raise_depth -= 1

    def visit_Global(self, node: ast.Global) -> None:
        self.sites["H006"].append(PerfSite(
            node,
            f"declares global {', '.join(node.names)} in a hot method; "
            f"global writes are dict operations on every event",
            "global",
        ))

    # -- assignments: note loop-bound names and escaping allocations -------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_binding(target)
            if self._is_self_store(target):
                self._mark_escape(node.value, "stored on self")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_binding(node.target)
        # An aug-assigned attribute chain is a load AND a store per
        # iteration -- count it toward H003 like a load.
        if isinstance(node.target, ast.Attribute):
            self._record_chain(node.target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._note_binding(node.target)
        if node.value is not None:
            if self._is_self_store(node.target):
                self._mark_escape(node.value, "stored on self")
            self.visit(node.value)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._mark_escape(node.value, "returned")
        self.generic_visit(node)

    def _note_binding(self, target: ast.AST) -> None:
        if self._loop_bound_stack:
            for name_node in ast.walk(target):
                if isinstance(name_node, ast.Name):
                    self._loop_bound_stack[-1].add(name_node.id)

    @staticmethod
    def _is_self_store(target: ast.AST) -> bool:
        node = target
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return isinstance(node, ast.Name) and node.id == "self"

    def _mark_escape(self, value: ast.AST, how: str) -> None:
        self._escapes[id(value)] = how

    # -- expressions -------------------------------------------------------

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.sites["H002"].append(PerfSite(
            node,
            "creates a lambda per call; the function object (and its "
            "closure cells) are allocated on every event",
            "lambda",
        ))
        # Don't descend: the body runs later, not on this path.

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.sites["H002"].append(PerfSite(
            node,
            f"defines nested function {node.name}() per call; the "
            f"function object (and its closure cells) are allocated on "
            f"every event",
            f"def:{node.name}",
        ))

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _alloc(self, node: ast.AST, kind: str) -> None:
        if self._raise_depth:
            return  # allocations feeding a raise are error-path
        escape = self._escapes.get(id(node))
        if escape is None:
            return
        self.sites["H001"].append(PerfSite(
            node,
            f"allocates a {kind} per call that escapes ({escape}); "
            f"hoist it to construction time or reuse a preallocated "
            f"object",
            f"alloc:{kind}:{escape.split()[0]}",
        ))

    def visit_List(self, node: ast.List) -> None:
        self._alloc(node, "list")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        self._alloc(node, "dict")
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        self._alloc(node, "set")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._alloc(node, "list comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._alloc(node, "dict comprehension")
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._alloc(node, "set comprehension")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # Arguments escape into the callee.
        for arg in node.args:
            self._mark_escape(arg, "passed to a call")
        for kw in node.keywords:
            self._mark_escape(kw.value, "passed to a call")
        if isinstance(func, ast.Name):
            name = func.id
            if name in _CONTAINER_CALLS:
                self._alloc(node, name)
            elif name in ("isinstance", "hasattr") and not self._raise_depth:
                target = ""
                if name == "isinstance" and len(node.args) == 2:
                    target = dotted_name(node.args[1]) or ""
                self.sites["H007"].append(PerfSite(
                    node,
                    f"{name}() dispatch on a hot path",
                    f"{name}:{target}",
                ))
            elif name in _LOG_CALLS and not self._raise_depth \
                    and not self._guard_depth:
                self.sites["H004"].append(PerfSite(
                    node,
                    f"unguarded {name}() on a hot path",
                    f"call:{name}",
                ))
            elif name[:1].isupper() and not self._raise_depth:
                # CamelCase constructor: resolved against the module
                # namespace by the analysis (H005).  Exception
                # constructors inside a raise are error-path.
                self.sites["H005"].append(PerfSite(
                    node, "", f"new:{name}",
                ))
        elif isinstance(func, ast.Attribute):
            if func.attr == "format" and not self._raise_depth \
                    and not self._guard_depth:
                self.sites["H004"].append(PerfSite(
                    node,
                    "unguarded str.format() on a hot path",
                    "format",
                ))
            elif func.attr in _LOG_METHOD_CALLS and not self._raise_depth \
                    and not self._guard_depth:
                chain = dotted_name(func) or func.attr
                root = chain.split(".")[0]
                if root in ("logging", "logger", "log") or ".log." in chain \
                        or chain.startswith("self.log"):
                    self.sites["H004"].append(PerfSite(
                        node,
                        f"unguarded logging call {chain}() on a hot path",
                        f"log:{func.attr}",
                    ))
        self.generic_visit(node)

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        if not self._raise_depth and not self._guard_depth and any(
            isinstance(part, ast.FormattedValue) for part in node.values
        ):
            self.sites["H004"].append(PerfSite(
                node,
                "unguarded f-string on a hot path; the formatting runs "
                "on every event even when nothing consumes it",
                "fstring",
            ))
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (isinstance(node.op, ast.Mod)
                and isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)
                and not self._raise_depth and not self._guard_depth):
            self.sites["H004"].append(PerfSite(
                node,
                "unguarded %-format on a hot path",
                "percent",
            ))
        if not self._maybe_pure(node):
            self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if not self._maybe_pure(node):
            self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if not self._maybe_pure(node):
            self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._record_chain(node)
        self.generic_visit(node)

    # -- H003: attribute chains in loops -----------------------------------

    def _record_chain(self, node: ast.Attribute) -> None:
        if not self._loop_chain_stack:
            return
        chain = dotted_name(node)
        if chain is None:
            return
        # Record in the innermost loop only; outer loops see the inner
        # loop's flushed result through their own occurrences.
        self._loop_chain_stack[-1].setdefault(chain, []).append(node)

    def _flush_h003(
        self, chains: Dict[str, List[ast.AST]], bound: Set[str]
    ) -> None:
        for chain, nodes in chains.items():
            root, _, rest = chain.partition(".")
            if not rest:
                continue
            if root in bound:
                continue
            segments = rest.count(".") + 1
            count = len(nodes)
            if (segments >= 2 and count >= 2) or count >= 4:
                self.sites["H003"].append(PerfSite(
                    nodes[0],
                    f"loads {chain} {count}x inside a loop body; bind "
                    f"it to a local before the loop",
                    f"chain:{chain}",
                ))
        # Propagate surviving chains outward: a chain loaded once in an
        # inner loop still runs per outer-loop iteration.
        if self._loop_chain_stack:
            outer = self._loop_chain_stack[-1]
            for chain, nodes in chains.items():
                outer.setdefault(chain, []).extend(nodes)

    # -- H008: recomputed pure subexpressions ------------------------------

    def _maybe_pure(self, node: ast.AST) -> bool:
        """Record ``node`` if it is a maximal pure expression.

        Returns True when the subtree was walked here (the caller must
        then skip its own generic_visit, or every child -- H003 chain
        loads included -- would be counted twice).
        """
        if self._in_pure or self._raise_depth:
            return False
        for sub in ast.walk(node):
            if not isinstance(sub, _PURE_NODES):
                return False
        rendered = unparse(node)
        self._pure_counts.setdefault(rendered, []).append(node)
        # Walk children exactly once: generic_visit still records H003
        # chains, while _in_pure keeps nested pure nodes from being
        # re-counted as separate maximal expressions.
        self._in_pure = True
        self.generic_visit(node)
        self._in_pure = False
        return True

    def _flush_h008(self) -> None:
        for rendered, nodes in self._pure_counts.items():
            if len(nodes) < 3:
                continue
            if not any(
                isinstance(sub, ast.Subscript)
                for node in nodes[:1]
                for sub in ast.walk(node)
            ) and not isinstance(nodes[0], (ast.BinOp, ast.Compare,
                                            ast.BoolOp)):
                continue
            self.sites["H008"].append(PerfSite(
                nodes[0],
                f"recomputes pure subexpression `{rendered}` "
                f"{len(nodes)}x in one call; compute it once into a "
                f"local",
                f"expr:{rendered}",
            ))


# -- analysis ----------------------------------------------------------------


class PerfHazard:
    """One H-rule hazard on a provably hot path."""

    __slots__ = ("rule_id", "class_name", "owner", "path", "location",
                 "detail", "token", "heat", "method", "filename",
                 "measured")

    def __init__(self, rule_id: str, class_name: str, owner: str,
                 heat: Heat, method: str, filename: str, site: PerfSite):
        self.rule_id = rule_id
        self.class_name = class_name
        #: the class that *defines* the flagged method (MRO owner) --
        #: the dedupe identity when many subclasses inherit it.
        self.owner = owner
        self.path = heat.path
        self.heat = heat.weight
        self.method = method
        self.filename = filename
        self.location = f"{filename}:{site.lineno}"
        self.detail = site.detail
        self.token = site.token
        #: measured cumulative-time fraction under --profile (None when
        #: no profile was given; 0.0 when absent from the profile).
        self.measured: Optional[float] = None

    @property
    def chain(self) -> str:
        return f"{self.class_name}." + " -> ".join(self.path)

    @property
    def fingerprint_path(self) -> str:
        """Evidence-chain identity: stable across lines and messages."""
        return (
            f"{self.class_name}:" + "->".join(self.path)
            + f":{self.token}"
        )

    def render(self, rank: int, total: int) -> str:
        text = (
            f"{self.rule_id} {self.chain}: {self.detail} "
            f"[heat {self.heat:g} ev/hop"
        )
        if self.measured is not None:
            text += f", measured {self.measured * 100:.1f}% cum"
        text += f", rank {rank}/{total}]"
        if self.location:
            text += f" ({self.location})"
        return text


def _resolve_name(module_name: str, name: str):
    module = sys.modules.get(module_name)
    if module is None:
        return None
    return getattr(module, name, None)


def _missing_slots(cls: type) -> bool:
    """True when instances of ``cls`` carry a ``__dict__``."""
    return any(
        "__slots__" not in klass.__dict__
        for klass in cls.__mro__
        if klass is not object
    )


def load_profile_times(path: str) -> Tuple[Dict[Tuple[str, str], float], float]:
    """cProfile dump -> ({(basename, funcname): cumtime}, total time).

    Keys use the file's basename so a profile recorded from an
    installed package still matches source checked out elsewhere.
    """
    import pstats

    stats = pstats.Stats(path)
    total = 0.0
    times: Dict[Tuple[str, str], float] = {}
    for (filename, _lineno, funcname), row in stats.stats.items():
        _cc, _nc, tt, ct, _callers = row
        total += tt
        key = (os.path.basename(filename), funcname)
        if ct > times.get(key, -1.0):
            times[key] = ct
    return times, total


def _framework_classes() -> List[Tuple[str, type]]:
    """Classes no configuration names but every simulation runs."""
    from repro.core.wheel import PhaseWheel
    from repro.net.channel import Channel, CreditChannel, _LandingWheel

    return [
        ("channel", Channel), ("channel", CreditChannel),
        ("wheel", PhaseWheel), ("wheel", _LandingWheel),
    ]


def analyze_class_perf(cls: type, kind: str) -> List[PerfHazard]:
    """All H-rule hazards of ``cls`` under ``kind``'s entry weights."""
    graph = ClassGraph(cls)
    if not graph.source_available:
        return []
    entries = HEAT_ENTRIES.get(kind, {})
    heat_map = propagate_heat(graph, entries)
    hazards: List[PerfHazard] = []
    seen: Set[Tuple[str, str, str]] = set()
    for method, heat in heat_map.items():
        if heat.weight < HOT_THRESHOLD:
            continue
        scan: MethodScan = graph.scans[method]
        perf = PerfScan(scan.node, scan.module)
        for rule_id, sites in perf.sites.items():
            for site in sites:
                if rule_id == "H005":
                    site = _resolve_h005(site, scan)
                    if site is None:
                        continue
                key = (rule_id, method, site.token)
                if key in seen:
                    continue
                seen.add(key)
                hazards.append(PerfHazard(
                    rule_id, graph.class_name, scan.class_name, heat,
                    method, scan.filename, site,
                ))
    return hazards


def _resolve_h005(site: PerfSite, scan: MethodScan) -> Optional[PerfSite]:
    """Keep an H005 site only if the constructed class lacks slots."""
    name = site.token.split(":", 1)[1]
    resolved = _resolve_name(scan.module, name)
    if not isinstance(resolved, type) or resolved is type:
        return None
    if not _missing_slots(resolved):
        return None
    return PerfSite(
        site.node,
        f"instantiates {name} per call, and {name} (or a base) has no "
        f"__slots__ -- every instance allocates an attribute dict",
        site.token,
    )


class PerfAnalysis:
    """Memoized hot-path audit of one lint run's model targets (the
    configured or in-path registered models, congestion sensors and
    framework classes); ``ctx.profile_path`` switches on correlation
    mode.
    """

    def __init__(self, ctx: LintContext):
        from repro.router.congestion import CongestionSensor

        bases = {**model_bases(), "sensor": CongestionSensor}
        self.targets = model_targets(ctx, bases, _framework_classes())
        self.profile_path = ctx.profile_path
        self._hazards: Optional[List[Tuple[ModelTarget, PerfHazard]]] = None
        self._ranked: Optional[List[Tuple[ModelTarget, PerfHazard, int]]] = None

    # -- hazard collection + ranking ---------------------------------------

    def hazards(self) -> List[Tuple[ModelTarget, PerfHazard]]:
        if self._hazards is None:
            seen_classes: Set[Tuple[type, str]] = set()
            #: one finding per (rule, defining class, method, token) --
            #: a base-class method inherited by N registered subclasses
            #: is one hazard, attributed to the hottest/shortest chain.
            best: Dict[Tuple[str, str, str, str],
                       Tuple[ModelTarget, PerfHazard]] = {}
            for target in self.targets:
                cls_key = (target.cls, target.kind)
                if cls_key in seen_classes:
                    continue
                seen_classes.add(cls_key)
                for hazard in analyze_class_perf(target.cls, target.kind):
                    key = (hazard.rule_id, hazard.owner, hazard.method,
                           hazard.token)
                    held = best.get(key)
                    if held is None or hazard.heat > held[1].heat or (
                        hazard.heat == held[1].heat
                        and len(hazard.path) < len(held[1].path)
                    ):
                        best[key] = (target, hazard)
            collected = list(best.values())
            if self.profile_path:
                times, total = load_profile_times(self.profile_path)
                for _target, hazard in collected:
                    cum = times.get(
                        (os.path.basename(hazard.filename), hazard.method)
                    )
                    if cum is None or total <= 0.0:
                        hazard.measured = 0.0
                    else:
                        hazard.measured = min(cum / total, 1.0)
            self._hazards = collected
        return self._hazards

    def ranked(self) -> List[Tuple[ModelTarget, PerfHazard, int]]:
        """Hazards ordered hottest-first with their 1-based rank.

        Without a profile the static heat ranks; with one, measured
        cumulative time does (heat breaks ties).
        """
        if self._ranked is None:
            hazards = self.hazards()
            ordered = sorted(
                hazards,
                key=lambda pair: (
                    -(pair[1].measured if pair[1].measured is not None
                      else 0.0),
                    -pair[1].heat,
                    pair[1].rule_id,
                    pair[1].chain,
                    pair[1].token,
                ),
            )
            self._ranked = [
                (target, hazard, rank)
                for rank, (target, hazard) in enumerate(ordered, start=1)
            ]
        return self._ranked

    def findings(self, rule: LintRule) -> List[Finding]:
        ranked = self.ranked()
        total = len(ranked)
        findings: List[Finding] = []
        for target, hazard, rank in ranked:
            if hazard.rule_id != rule.rule_id:
                continue
            demoted = (
                hazard.measured is not None
                and hazard.measured < COLD_FRACTION
            )
            findings.append(Finding(
                rule.rule_id,
                Severity.INFO if demoted else rule.severity,
                rule.template.format(
                    origin=target.origin, name=target.name,
                    prefix="measured cold here: " if demoted else "",
                    hazard=hazard.render(rank, total),
                ),
                config_path=hazard.fingerprint_path,
                location=hazard.location,
            ))
        return findings


# -- lint-layer integration --------------------------------------------------


declare_rules(PERF_LAYER, lambda rule, ctx: ctx.perf().findings(rule), [
    (rule_id, Severity.WARNING, description, TARGET_FRAME)
    for rule_id, description in (
        ("H001", "container allocated per event escapes the call (stored, "
                 "returned, or passed on) -- one garbage object per event"),
        ("H002", "closure or lambda created per call on a hot path (fresh "
                 "function object per event)"),
        ("H003", "same attribute chain loaded repeatedly inside a hot loop "
                 "body; bind it to a local before the loop"),
        ("H004", "unguarded f-string/%-format/.format()/logging on a hot "
                 "path (raise/assert and conditional branches are exempt)"),
        ("H005", "class instantiated on a hot path lacks __slots__ in its "
                 "MRO; every instance allocates an attribute dict"),
        ("H006", "try/except inside a hot loop body, or `global` in a hot "
                 "method"),
        ("H007", "isinstance()/hasattr() dispatch on a hot path; hoist the "
                 "branch when the registry proves the site monomorphic"),
        ("H008", "same pure subexpression recomputed 3+ times in one hot "
                 "method; compute it once into a local"),
    )
])
