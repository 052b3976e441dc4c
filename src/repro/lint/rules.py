"""The lint rule registry.

Rules are classes deriving from :class:`LintRule` and registered with
the process-global object factory under their rule id, exactly like
router architectures or traffic patterns (paper §III-D)::

    @factory.register(LintRule, "C001")
    class UnknownKeyRule(LintRule):
        rule_id = "C001"
        ...

so dropping a new rule module into the code base requires zero changes
to existing files, and ``sslint`` enumerates every rule through
``factory.names(LintRule)``.  Rules that differ only in id, severity
and wording (one shared analysis reports facts per rule id) are rows of
a table; :func:`declare_rules` registers one such class per row.

Each rule belongs to one *layer*:

* ``config`` -- validates the ``Settings`` tree declaratively.
* ``graph`` -- inspects the constructed (never-run) network graph.
* ``determinism`` -- AST checks over workload/model source files.
* ``dataflow`` -- AST checks for model-contract violations (epsilon
  discipline, engine-owned event fields, credit-API bypasses) -- the
  static counterparts of the :mod:`repro.sanitize` runtime checks.
* ``partition`` -- shard-safety checks of a partition manifest
  (planned or hand-written) against the constructed network, plus AST
  checks for shard-isolation hazards in model code.
* ``shard`` -- interprocedural shard-purity analysis (S-rules) of the
  registered model classes a configuration selects: per-class call
  graphs from the framework entry points, attribute-reach dataflow,
  and a shard-safe/shard-unsafe/unknown verdict with evidence chains.

A :class:`LintContext` carries the inputs and memoizes the expensive
shared work (the schema walk, the network construction and channel
dependency trace, the parsed and fact-walked source files) so each
layer pays its cost once no matter how many rules consume it.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple,
)

from repro import factory
from repro.config.settings import Settings
from repro.lint.findings import Finding, LintReport, Severity

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.callgraph import ModelTarget
    from repro.lint.graph import GraphAnalysis
    from repro.lint.partition_rules import PartitionAnalysis
    from repro.lint.source_rules import SourceFile

CONFIG_LAYER = "config"
GRAPH_LAYER = "graph"
DETERMINISM_LAYER = "determinism"
DATAFLOW_LAYER = "dataflow"
PARTITION_LAYER = "partition"
SHARD_LAYER = "shard"


class LintRule:
    """Base class for lint rules; subclasses register with the factory."""

    #: Stable identifier (``C00x``, ``G00x``, ``D00x``).
    rule_id: str = ""
    #: Which analysis layer feeds this rule.
    layer: str = CONFIG_LAYER
    #: One-line description (surfaced by ``sslint --list-rules`` and docs).
    description: str = ""
    #: Table-declared rules only: the severity of a finding that is not
    #: demoted, and the ``str.format`` template of its message.
    severity: Severity = Severity.WARNING
    template: str = ""

    def check(self, ctx: "LintContext") -> Iterable[Finding]:
        raise NotImplementedError


#: message frame of the shard layer: where the model was selected,
#: then the hazard with its evidence chain.
TARGET_FRAME = "[{origin}={name}] {prefix}{hazard}"


def declare_rules(
    layer: str,
    check: Callable[[LintRule, "LintContext"], Iterable[Finding]],
    table: Iterable[Tuple[str, Severity, str, str]],
) -> None:
    """Register one rule class per ``(rule id, severity, description,
    message template)`` row; all of them run ``check``, which reads the
    row back off the rule instance it is handed."""
    for rule_id, severity, description, template in table:
        rule_cls = type(f"Rule{rule_id}", (LintRule,), {
            "rule_id": rule_id,
            "layer": layer,
            "severity": severity,
            "description": description,
            "template": template,
            "check": check,
        })
        factory.register(LintRule, rule_id)(rule_cls)


def require_max_pairs(max_pairs: int) -> None:
    """Reject a pair budget that would trace nothing: with no pair
    traced the CDG is empty, so G004/G005 could never fire and a
    deadlock-prone config would lint clean."""
    if max_pairs < 1:
        raise ValueError(
            f"max_pairs must be at least 1 (got {max_pairs}); the "
            f"dependency trace needs a terminal pair to find cycles"
        )


class LintContext:
    """Inputs plus memoized shared analyses for one lint run."""

    def __init__(
        self,
        settings: Optional[Settings] = None,
        source_paths: Optional[List[str]] = None,
        max_pairs: int = 512,
        sweep=None,
        partition_k: Optional[int] = None,
        manifest: Optional[dict] = None,
        partition_tolerance: Optional[float] = None,
        lookahead_threshold: int = 1,
    ):
        require_max_pairs(max_pairs)
        self.settings = settings
        self.source_paths = list(source_paths or [])
        self.max_pairs = max_pairs
        self.sweep = sweep
        #: Shard count to plan (P-rules then verify the planned
        #: manifest); ``manifest`` instead verifies a caller-provided
        #: document against the network this config constructs.
        self.partition_k = partition_k
        self.manifest = manifest
        self.partition_tolerance = partition_tolerance
        self.lookahead_threshold = lookahead_threshold
        self._schema_findings: Optional[List[Finding]] = None
        self._graph: Optional["GraphAnalysis"] = None
        self._sources: Optional[List["SourceFile"]] = None
        self._partition: Optional["PartitionAnalysis"] = None
        self._shard: Optional[List["ModelTarget"]] = None

    # -- memoized analyses ---------------------------------------------------

    @property
    def raw(self) -> dict:
        return self.settings.raw() if self.settings is not None else {}

    def schema_findings(self) -> List[Finding]:
        """Findings from the declarative schema walk (C001..C005)."""
        if self._schema_findings is None:
            from repro.lint.config_rules import walk_schema

            self._schema_findings = list(walk_schema(self.raw))
        return self._schema_findings

    def graph(self) -> "GraphAnalysis":
        """The constructed network graph and its dependency trace."""
        if self._graph is None:
            from repro.lint.graph import GraphAnalysis

            self._graph = GraphAnalysis(self.settings, max_pairs=self.max_pairs)
        return self._graph

    def sources(self) -> List["SourceFile"]:
        """Every requested source file, parsed and fact-walked once."""
        if self._sources is None:
            from repro.lint.source_rules import SourceFile

            self._sources = [SourceFile(path) for path in self.source_paths]
        return self._sources

    def partition(self) -> "PartitionAnalysis":
        """Component graph + manifest (planned or provided) + checks."""
        if self._partition is None:
            from repro.lint.partition_rules import PartitionAnalysis

            self._partition = PartitionAnalysis(self)
        return self._partition

    def shard(self) -> List["ModelTarget"]:
        """The model classes the shard layer classifies."""
        if self._shard is None:
            from repro.lint.callgraph import model_bases, model_targets

            self._shard = model_targets(self, model_bases())
        return self._shard


def all_rule_ids(layer: Optional[str] = None) -> List[str]:
    """Every registered rule id, optionally restricted to one layer."""
    import repro.lint.config_rules  # noqa: F401 - registration side effects
    import repro.lint.graph  # noqa: F401
    import repro.lint.partition_rules  # noqa: F401
    import repro.lint.shard_rules  # noqa: F401
    import repro.lint.source_rules  # noqa: F401

    ids = factory.names(LintRule)
    if layer is None:
        return ids
    return [
        rule_id
        for rule_id in ids
        if factory.lookup(LintRule, rule_id).layer == layer
    ]


def run_rules(
    ctx: LintContext,
    layers: Iterable[str],
    subject: Optional[str] = None,
) -> LintReport:
    """Run every registered rule of ``layers`` against ``ctx``."""
    wanted = set(layers)
    report = LintReport(subject=subject)
    for rule_id in all_rule_ids():
        rule_cls = factory.lookup(LintRule, rule_id)
        if rule_cls.layer not in wanted:
            continue
        rule = factory.create(LintRule, rule_id)
        report.extend(rule.check(ctx))
    return report


def rule_catalog() -> Dict[str, Dict[str, str]]:
    """{rule id: {layer, description}} for docs and ``--list-rules``."""
    catalog: Dict[str, Dict[str, str]] = {}
    for rule_id in all_rule_ids():
        cls = factory.lookup(LintRule, rule_id)
        catalog[rule_id] = {
            "layer": cls.layer,
            "description": cls.description,
        }
    return catalog
