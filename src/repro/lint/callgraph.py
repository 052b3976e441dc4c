"""Per-class interprocedural call graphs for registered model classes.

The shard-purity layer (:mod:`repro.lint.shard_rules`) must reason
about what a *class* does when the framework drives it: which methods
can run from an event/handler entry point, what state they touch, and
under which configuration those paths are even wired up.  This module
builds that picture from source, one class at a time:

* :func:`class_graph` parses the defining module of every class in the
  MRO (cached per module), collects the method ASTs (first definition
  in MRO order wins, mirroring attribute lookup), and scans each method
  once (:class:`MethodScan`) for call edges, attribute reads/writes,
  module-global touches, and the guarding ``if`` conditions around each
  site.
* Call edges cover both direct ``self.method()`` calls and *callback
  references* -- ``self.schedule(self._check, ...)`` passes a bound
  method that the event loop will invoke later, so a bare Load of
  ``self._check`` is an edge too ("Escape from Callback Hell": the
  handler chain is the real control flow).
* :func:`reachable` runs a shortest-condition-first search from a set
  of entry points and returns, per reached method, the evidence path
  (``on_init -> _warmup_check``) and the smallest set of evaluable
  configuration conditions guarding it.

Conditions are deliberately modest: only comparisons of a
settings-derived ``self`` attribute against a literal are captured
(``self.warmup_mode == "auto"``, ``self.injection_rate > 0.0``).
Anything else contributes no condition, which errs on the side of
reporting a hazard as unconditionally reachable -- the sound direction
for a gate.  When several paths reach a method, the path with the
fewest conditions is kept for the same reason.
"""

from __future__ import annotations

import ast
import inspect
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: sentinel: a settings key with no recorded literal default.
MISSING = object()

#: container-mutating method names (a call on ``self.x`` or a module
#: global through one of these counts as a write to it).
MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popleft", "remove", "setdefault", "update",
})

#: module-level ``NAME = <factory>()`` spellings that create mutable
#: containers (shared process-global state).
MUTABLE_FACTORIES = frozenset({
    "Counter", "OrderedDict", "defaultdict", "deque", "dict", "list",
    "set",
})

_OPS = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Lt: "<",
    ast.LtE: "<=",
}

_NEGATED = {"==": "!=", "!=": "==", ">": "<=", ">=": "<", "<": ">=",
            "<=": ">"}

_EVALUATORS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


class Cond:
    """``self.<attr> <op> <literal>`` where ``attr`` came from settings.

    Evaluable against a raw configuration block: the attribute's value
    is ``block[key]`` (falling back to the recorded getter default), so
    the lint layer can tell a *dormant* hazard (guarded by a setting
    this config does not enable) from an applicable one.
    """

    __slots__ = ("key", "default", "op", "value")

    def __init__(self, key: str, default, op: str, value):
        self.key = key
        self.default = default
        self.op = op
        self.value = value

    def negated(self) -> "Cond":
        return Cond(self.key, self.default, _NEGATED[self.op], self.value)

    def evaluate(self, block: Optional[dict]) -> Optional[bool]:
        """True/False against ``block``; None when undecidable."""
        if block is None:
            return None
        if self.key in block:
            actual = block[self.key]
        elif self.default is not MISSING:
            actual = self.default
        else:
            return None
        try:
            return bool(_EVALUATORS[self.op](actual, self.value))
        except TypeError:
            return None

    def render(self) -> str:
        return f"{self.key} {self.op} {self.value!r}"

    def _key(self) -> tuple:
        return (self.key, self.op, repr(self.value))


def merge_conds(*groups: Sequence[Cond]) -> Tuple[Cond, ...]:
    """Concatenate condition groups, dropping duplicates."""
    seen = set()
    merged: List[Cond] = []
    for group in groups:
        for cond in group:
            key = cond._key()
            if key not in seen:
                seen.add(key)
                merged.append(cond)
    return tuple(merged)


def render_conds(conds: Sequence[Cond]) -> str:
    """``[when a == 'x' and b > 0]`` or '' for unconditional."""
    if not conds:
        return ""
    return "[when " + " and ".join(c.render() for c in conds) + "]"


# -- module parsing ----------------------------------------------------------


_module_cache: Dict[str, Optional[Tuple[ast.Module, str]]] = {}


def module_tree(module_name: str) -> Optional[Tuple[ast.Module, str]]:
    """(AST, filename) of an imported module; None when unreadable."""
    if module_name not in _module_cache:
        import sys

        result = None
        module = sys.modules.get(module_name)
        if module is not None:
            try:
                filename = inspect.getsourcefile(module)
                if filename:
                    with open(filename, "r", encoding="utf-8") as handle:
                        result = (ast.parse(handle.read()), filename)
            except (OSError, TypeError, SyntaxError):
                result = None
        _module_cache[module_name] = result
    return _module_cache[module_name]


class ModuleState:
    """Module-level mutable names and id counters of one module."""

    __slots__ = ("mutables", "counters")

    def __init__(self, tree: ast.Module):
        self.mutables: Set[str] = set()
        self.counters: Set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                value = stmt.value
                if isinstance(value, (ast.List, ast.Dict, ast.Set,
                                      ast.ListComp, ast.DictComp,
                                      ast.SetComp)):
                    self.mutables.add(target.id)
                elif isinstance(value, ast.Call):
                    func = value.func
                    name = None
                    if isinstance(func, ast.Name):
                        name = func.id
                    elif isinstance(func, ast.Attribute):
                        name = func.attr
                    if name in MUTABLE_FACTORIES:
                        self.mutables.add(target.id)
                    elif name == "count":
                        self.counters.add(target.id)
                        self.mutables.add(target.id)


_module_state_cache: Dict[str, ModuleState] = {}


def module_state(module_name: str) -> Optional[ModuleState]:
    if module_name not in _module_state_cache:
        parsed = module_tree(module_name)
        _module_state_cache[module_name] = (
            ModuleState(parsed[0]) if parsed is not None else None
        )
    return _module_state_cache[module_name]


def _find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name == name:
            return stmt
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


# -- per-method scan ---------------------------------------------------------


class Edge:
    """One call-graph edge: direct call or callback reference."""

    __slots__ = ("target", "conds", "lineno", "kind")

    def __init__(self, target: str, conds: Tuple[Cond, ...], lineno: int,
                 kind: str):
        self.target = target
        self.conds = conds
        self.lineno = lineno
        self.kind = kind  # "call" | "callback"


class Site:
    """One interesting expression occurrence with its guard conditions."""

    __slots__ = ("node", "conds")

    def __init__(self, node: ast.AST, conds: Tuple[Cond, ...]):
        self.node = node
        self.conds = conds

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 0)


class MethodScan:
    """Single-pass scan of one method body.

    Collects, each with the ``if`` conditions guarding it:

    * ``edges`` -- direct ``self.m()`` calls and callback references to
      sibling methods,
    * ``attr_loads`` -- every ``<expr>.attr`` read (Load context), as
      ``(attr name, Site, owner)`` where owner is ``"self"`` for
      ``self.attr`` and ``"other"`` otherwise,
    * ``self_calls`` -- ``self.m(...)`` call sites by method name (for
      control-signal detection, whether or not ``m`` is defined in this
      class),
    * ``method_calls`` -- ``<expr>.m(...)`` call sites on non-self
      objects by attribute name (RNG draws, ``send_message``),
    * ``global_stmts``, ``global_reads`` -- ``global`` statements and
      ``next(NAME)`` / mutations of module-level names,
    * ``self_writes`` -- ``self.attr`` names stored, aug-assigned,
      subscript-assigned, or mutated through a container method.
    """

    def __init__(self, name: str, node: ast.AST, class_name: str,
                 module_name: str, filename: str):
        self.name = name
        self.node = node
        self.class_name = class_name
        self.module = module_name
        self.filename = filename
        self.edges: List[Edge] = []
        self.attr_loads: List[Tuple[str, Site, str]] = []
        self.self_calls: List[Tuple[str, Site]] = []
        self.method_calls: List[Tuple[str, Site]] = []
        self.global_stmts: List[Site] = []
        self.next_calls: List[Tuple[str, Site]] = []
        self.name_mutations: List[Tuple[str, Site]] = []
        self.self_writes: Set[str] = set()
        self._func_ids: Set[int] = set()
        self._len_arg_ids: Set[int] = set()
        self._sibling_methods: Set[str] = set()

    def run(self, sibling_methods: Set[str]) -> "MethodScan":
        self._sibling_methods = sibling_methods
        body = getattr(self.node, "body", [])
        self._walk_body(body, ())
        return self

    # -- statement walk (tracks guarding conditions) ----------------------

    def _walk_body(self, stmts, conds: Tuple[Cond, ...]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                self._scan_expr(stmt.test, conds)
                test_conds, negation = self._extract(stmt.test)
                self._walk_body(stmt.body, merge_conds(conds, test_conds))
                else_conds = (negation,) if negation is not None else ()
                self._walk_body(stmt.orelse, merge_conds(conds, else_conds))
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_expr(stmt.iter, conds)
                self._scan_expr(stmt.target, conds)
                self._walk_body(stmt.body, conds)
                self._walk_body(stmt.orelse, conds)
            elif isinstance(stmt, ast.While):
                self._scan_expr(stmt.test, conds)
                self._walk_body(stmt.body, conds)
                self._walk_body(stmt.orelse, conds)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._scan_expr(item.context_expr, conds)
                self._walk_body(stmt.body, conds)
            elif isinstance(stmt, ast.Try):
                self._walk_body(stmt.body, conds)
                for handler in stmt.handlers:
                    self._walk_body(handler.body, conds)
                self._walk_body(stmt.orelse, conds)
                self._walk_body(stmt.finalbody, conds)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk_body(stmt.body, conds)
            elif isinstance(stmt, ast.Global):
                self.global_stmts.append(Site(stmt, conds))
            else:
                self._scan_expr(stmt, conds)

    # -- condition extraction ---------------------------------------------

    def _extract(self, test: ast.AST):
        """(conditions, negation-or-None) of an ``if`` test.

        A single evaluable comparison negates cleanly for the ``else``
        branch; an ``and`` of comparisons contributes each evaluable
        part to the body (but nothing to ``else``); anything else
        contributes nothing -- conservative in both directions.
        """
        cond = self._compare_cond(test)
        if cond is not None:
            return (cond,), cond.negated()
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            conds = tuple(
                c for c in (self._compare_cond(v) for v in test.values)
                if c is not None
            )
            return conds, None
        return (), None

    def _compare_cond(self, node: ast.AST) -> Optional[Cond]:
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            return None
        op = _OPS.get(type(node.ops[0]))
        if op is None:
            return None
        left, right = node.left, node.comparators[0]
        attr = self._self_attr(left)
        if attr is None or not isinstance(right, ast.Constant):
            return None
        binding = self._settings_attrs.get(attr)
        if binding is None:
            return None
        key, default = binding
        return Cond(key, default, op, right.value)

    _settings_attrs: Dict[str, Tuple[str, object]] = {}

    @staticmethod
    def _self_attr(node: ast.AST) -> Optional[str]:
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr
        return None

    # -- expression scan ---------------------------------------------------

    def _scan_expr(self, root: ast.AST, conds: Tuple[Cond, ...]) -> None:
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                self._func_ids.add(id(node.func))
                func = node.func
                if isinstance(func, ast.Name):
                    if func.id == "len":
                        for arg in node.args:
                            for sub in ast.walk(arg):
                                self._len_arg_ids.add(id(sub))
                    elif func.id == "next" and node.args and isinstance(
                            node.args[0], ast.Name):
                        self.next_calls.append(
                            (node.args[0].id, Site(node, conds))
                        )
                elif isinstance(func, ast.Attribute):
                    site = Site(node, conds)
                    owner = func.value
                    if isinstance(owner, ast.Name) and owner.id == "self":
                        self.self_calls.append((func.attr, site))
                        if func.attr in self._sibling_methods:
                            self.edges.append(Edge(
                                func.attr, conds, node.lineno, "call"
                            ))
                    else:
                        self.method_calls.append((func.attr, site))
                        if (isinstance(owner, ast.Call)
                                and isinstance(owner.func, ast.Name)
                                and owner.func.id == "super"
                                and func.attr in self._sibling_methods):
                            # super().m() stays within the merged MRO
                            # view (first definition wins), so it adds
                            # no edge -- but is recorded as a call.
                            pass
                        # container mutation of a module-level name
                        if (func.attr in MUTATORS
                                and isinstance(owner, ast.Name)
                                and owner.id != "self"):
                            self.name_mutations.append(
                                (owner.id, Site(node, conds))
                            )
                        # container mutation of self.x.append(...)
                        if func.attr in MUTATORS:
                            attr = self._self_attr(owner)
                            if attr is not None:
                                self.self_writes.add(attr)
            elif isinstance(node, ast.Attribute):
                attr = node.attr
                is_self = (isinstance(node.value, ast.Name)
                           and node.value.id == "self")
                if isinstance(node.ctx, ast.Load):
                    owner = "self" if is_self else "other"
                    self.attr_loads.append((attr, Site(node, conds), owner))
                    if (is_self and attr in self._sibling_methods
                            and id(node) not in self._func_ids):
                        self.edges.append(Edge(
                            attr, conds, node.lineno, "callback"
                        ))
                elif is_self:
                    self.self_writes.add(attr)
            elif isinstance(node, ast.Subscript):
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    attr = self._self_attr(node.value)
                    if attr is not None:
                        self.self_writes.add(attr)
                    elif isinstance(node.value, ast.Name):
                        self.name_mutations.append(
                            (node.value.id, Site(node, conds))
                        )

    # Callback references can syntactically precede the Call node that
    # makes them a plain call (ast.walk order is breadth-first), so
    # edges are deduplicated after the scan: a "callback" edge whose
    # Attribute node turned out to be a call's func is dropped there.

    def in_len(self, node: ast.AST) -> bool:
        """Whether ``node`` sits inside a ``len(...)`` argument."""
        return id(node) in self._len_arg_ids


# -- per-class graph ---------------------------------------------------------


class ClassGraph:
    """Merged MRO view of one class: methods, scans, settings, edges."""

    def __init__(self, cls: type):
        self.cls = cls
        self.class_name = cls.__name__
        #: method name -> (AST node, defining module, filename, class)
        self.methods: Dict[str, Tuple[ast.AST, str, str, str]] = {}
        self.scans: Dict[str, MethodScan] = {}
        #: self attribute -> (settings key, literal default or MISSING)
        self.settings_attrs: Dict[str, Tuple[str, object]] = {}
        self.source_available = False
        #: every method definition across the MRO, shadowed ones
        #: included -- a subclass __init__ calls super().__init__(), so
        #: settings bindings made anywhere in the chain are live.
        self._all_defs: List[ast.AST] = []
        self._build()

    def _build(self) -> None:
        for klass in self.cls.__mro__:
            if klass is object:
                continue
            parsed = module_tree(klass.__module__)
            if parsed is None:
                continue
            tree, filename = parsed
            node = _find_class(tree, klass.__name__)
            if node is None:
                continue
            self.source_available = True
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    self._all_defs.append(stmt)
                    if stmt.name not in self.methods:
                        self.methods[stmt.name] = (
                            stmt, klass.__module__, filename,
                            klass.__name__,
                        )
        self._collect_settings_attrs()
        names = set(self.methods)
        for name, (node, module, filename, owner) in self.methods.items():
            scan = MethodScan(name, node, owner, module, filename)
            scan._settings_attrs = self.settings_attrs
            self.scans[name] = scan.run(names)
        # Drop callback edges whose Attribute node was really the func
        # of a call (see MethodScan note).
        for scan in self.scans.values():
            scan.edges = [
                edge for edge in scan.edges
                if not (edge.kind == "callback" and any(
                    call_edge.kind == "call"
                    and call_edge.target == edge.target
                    and call_edge.lineno == edge.lineno
                    for call_edge in scan.edges
                ))
            ]

    def _collect_settings_attrs(self) -> None:
        getters = {"get_str", "get_int", "get_uint", "get_float",
                   "get_bool"}
        for node in self._all_defs:
            for stmt in ast.walk(node):
                if not isinstance(stmt, ast.Assign):
                    continue
                if len(stmt.targets) != 1:
                    continue
                target = stmt.targets[0]
                attr = MethodScan._self_attr(target)
                if attr is None or not isinstance(stmt.value, ast.Call):
                    continue
                func = stmt.value.func
                if not (isinstance(func, ast.Attribute)
                        and func.attr in getters):
                    continue
                # receiver must mention a name containing "settings"
                receiver_ok = any(
                    isinstance(sub, ast.Name) and "settings" in sub.id
                    or isinstance(sub, ast.Attribute)
                    and "settings" in sub.attr
                    for sub in ast.walk(func.value)
                )
                if not receiver_ok:
                    continue
                args = stmt.value.args
                if not args or not isinstance(args[0], ast.Constant):
                    continue
                key = args[0].value
                default = MISSING
                if len(args) > 1 and isinstance(args[1], ast.Constant):
                    default = args[1].value
                if attr not in self.settings_attrs:
                    self.settings_attrs[attr] = (key, default)


class Reach:
    """How one method is reached: evidence path + guard conditions."""

    __slots__ = ("path", "conds")

    def __init__(self, path: Tuple[str, ...], conds: Tuple[Cond, ...]):
        self.path = path
        self.conds = conds


class Heat:
    """How hot one method is and the hottest way it is reached.

    ``weight`` is in *events per flit-hop* units: the entry-point
    weights encode the measured event census (~3 events per flit-hop,
    docs/PERFORMANCE.md), and heat propagates along call edges without
    attenuation -- a helper called from a per-event handler runs just
    as often as the handler.  ``path`` is the evidence chain from the
    hottest entry point (``_step -> _run_crossbar -> ...``).
    """

    __slots__ = ("weight", "path", "conds")

    def __init__(self, weight: float, path: Tuple[str, ...],
                 conds: Tuple[Cond, ...]):
        self.weight = weight
        self.path = path
        self.conds = conds


def reachable(
    graph: ClassGraph, entries: Sequence[str]
) -> Dict[str, Reach]:
    """Methods reachable from ``entries`` with best paths.

    "Best" minimizes (number of guard conditions, path length): of all
    ways to reach a method, the least-conditional one decides whether a
    hazard inside it applies to a given configuration.
    """
    best: Dict[str, Reach] = {}
    queue: deque = deque()
    for entry in entries:
        if entry in graph.methods:
            best[entry] = Reach((entry,), ())
            queue.append(entry)
    while queue:
        name = queue.popleft()
        base = best[name]
        for edge in graph.scans[name].edges:
            conds = merge_conds(base.conds, edge.conds)
            path = base.path + (edge.target,)
            current = best.get(edge.target)
            if current is None or (
                (len(conds), len(path))
                < (len(current.conds), len(current.path))
            ):
                best[edge.target] = Reach(path, conds)
                queue.append(edge.target)
    return best


def propagate_heat(
    graph: ClassGraph, entry_weights: Dict[str, float]
) -> Dict[str, Heat]:
    """Per-method heat from weighted entry points.

    Every method reachable from an entry point inherits that entry's
    weight undiminished (it executes once per entry invocation on the
    evidence path); a method reachable from several entries gets the
    *maximum* weight, with ties broken toward the shortest evidence
    path.  Methods not reachable from any entry (construction helpers,
    diagnostics) are absent from the result -- provably cold.

    All entries are seeded first (an entry's own heat is its declared
    weight, never a longer path through another entry), then a
    worklist relaxes call edges until no method can be made hotter or
    reached by a strictly better path.
    """
    heat: Dict[str, Heat] = {}
    queue: deque = deque()
    for entry, weight in sorted(
        entry_weights.items(), key=lambda item: (-item[1], item[0])
    ):
        if entry in graph.methods:
            heat[entry] = Heat(weight, (entry,), ())
            queue.append(entry)
    while queue:
        name = queue.popleft()
        base = heat[name]
        for edge in graph.scans[name].edges:
            target = edge.target
            if target in entry_weights and target in heat:
                # Entries keep their seeded identity.
                if entry_weights.get(target, 0.0) >= base.weight:
                    continue
            current = heat.get(target)
            path = base.path + (target,)
            conds = merge_conds(base.conds, edge.conds)
            if current is None or (
                current.weight < base.weight
                or (current.weight == base.weight
                    and (len(conds), len(path))
                    < (len(current.conds), len(current.path)))
            ):
                heat[target] = Heat(base.weight, path, conds)
                queue.append(target)
    return heat
