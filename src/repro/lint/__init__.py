"""repro.lint: static analysis of experiments before they run.

Six layers of checks, all runnable without simulating a single tick:

* **config** (C001..C009) -- validates the Settings tree against a
  declarative schema (types, ranges, unknown keys with did-you-mean)
  plus cross-field constraints (VC disciplines, credit/buffer-depth
  arithmetic).
* **graph** (G001..G006) -- constructs the network (construction is
  event-free), checks port wiring, and traces the channel dependency
  graph of the routing algorithm to detect deadlock-prone cycles.
* **determinism** (D001..D005) -- AST checks over workload/model
  source files (unseeded randomness, wall-clock reads, module-level
  state written from functions) plus a runtime pickling check of
  parallel-sweep payloads.
* **dataflow** (E001, E003..E006) -- AST checks for model-contract
  violations: epsilon-discipline breaches, engine-owned event fields
  written by models, credit counts mutated outside the ``repro.net.credit``
  API.  The static counterparts of the ``repro.sanitize`` runtime
  sanitizers.
* **partition** (P001..P006, P008) -- shard-safety checks of a
  partition manifest (planned by :mod:`repro.partition` or
  hand-written) against the constructed network, plus AST checks for
  code that reaches across a shard boundary without a channel.  See
  docs/PARTITIONING.md.

The source layers above share one parsed-and-walked model of each file
(:mod:`repro.lint.source_rules`); the class-level layer below reads
one call graph per model class (:mod:`.callgraph`).

* **shard** (S002..S005) -- interprocedural shard-purity analysis of
  the registered model classes a configuration selects (or of model
  classes defined in given source files): per-class call graphs from
  the framework entry points, classifying each model shard-safe /
  shard-unsafe / unknown with evidence chains.  Runs inside
  ``lint_partition`` (so ``sslint --partition``, ``supersim
  --partition-plan``, and ``sssweep --partition`` all gate on it) and
  on demand via ``--layer shard``; it is not part of the default
  source layers.

Entry points: ``sslint`` (CLI), ``supersim --lint`` /
``--partition-plan``, and ``sssweep``'s pre-fan-out gate.  See
docs/LINTING.md for the rule catalog.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro import factory
from repro.config.settings import Settings, SettingsError
from repro.lint.findings import Finding, LintReport, Severity
from repro.lint.rules import (
    CONFIG_LAYER,
    DATAFLOW_LAYER,
    DETERMINISM_LAYER,
    GRAPH_LAYER,
    PARTITION_LAYER,
    SHARD_LAYER,
    LintContext,
    LintRule,
    all_rule_ids,
    require_max_pairs,
    rule_catalog,
    run_rules,
)

ALL_LAYERS = (
    CONFIG_LAYER,
    GRAPH_LAYER,
    DETERMINISM_LAYER,
    DATAFLOW_LAYER,
    PARTITION_LAYER,
    SHARD_LAYER,
)

#: Layers that run over Python source files (vs. config trees).  The
#: shard layer can run over sources too, but only when explicitly
#: requested (``--layer shard``): it classifies *registered* model
#: classes, which requires the modules to be imported first.
SOURCE_LAYERS = (DETERMINISM_LAYER, DATAFLOW_LAYER, PARTITION_LAYER)

__all__ = [
    "ALL_LAYERS",
    "CONFIG_LAYER",
    "DATAFLOW_LAYER",
    "DETERMINISM_LAYER",
    "GRAPH_LAYER",
    "PARTITION_LAYER",
    "SHARD_LAYER",
    "SOURCE_LAYERS",
    "Finding",
    "LintContext",
    "LintReport",
    "LintRule",
    "Severity",
    "all_rule_ids",
    "lint_config_dict",
    "lint_partition",
    "lint_settings",
    "lint_sources",
    "lint_sweep",
    "rule_catalog",
    "run_rules",
]


def _layer_tuple(layers: Iterable[str]) -> Tuple[str, ...]:
    """``layers`` read once into a tuple; ValueError on an unknown name
    (a typo must not lint clean)."""
    wanted = tuple(layers)
    unknown = [layer for layer in wanted if layer not in ALL_LAYERS]
    if unknown:
        raise ValueError(
            f"unknown lint layer(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(ALL_LAYERS)}"
        )
    return wanted


def lint_settings(
    settings: Settings,
    graph: bool = True,
    max_pairs: int = 512,
    subject: Optional[str] = None,
    layers: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint a resolved Settings tree (config layer, optionally graph).

    The graph layer is skipped automatically when the config layer
    reports errors: constructing a network from a config that is
    already known-broken would only duplicate those errors as a G001.
    ``layers`` restricts the run to a subset of (config, graph,
    shard); the config-errors-gate-graph rule still applies within the
    subset.
    """
    wanted = (
        _layer_tuple(layers) if layers is not None
        else (CONFIG_LAYER, GRAPH_LAYER)
    )
    ctx = LintContext(settings=settings, max_pairs=max_pairs)
    report = LintReport(subject=subject)
    if CONFIG_LAYER in wanted:
        report.merge(run_rules(ctx, [CONFIG_LAYER], subject=subject))
    if graph and GRAPH_LAYER in wanted and not report.has_errors():
        report.merge(run_rules(ctx, [GRAPH_LAYER], subject=subject))
    if SHARD_LAYER in wanted and not report.has_errors():
        report.merge(run_rules(ctx, [SHARD_LAYER], subject=subject))
    return report


def lint_partition(
    settings: Settings,
    k: Optional[int] = None,
    manifest: Optional[dict] = None,
    tolerance: Optional[float] = None,
    lookahead_threshold: int = 1,
    max_pairs: int = 512,
    subject: Optional[str] = None,
    shard: bool = True,
) -> Tuple[LintReport, Optional[dict]]:
    """Plan (``k``) or verify (``manifest``) a partition for ``settings``.

    Runs the config layer first (a broken config cannot be partitioned),
    then the graph + partition layers, then (unless ``shard=False``)
    the shard-purity S-rules over the model classes the configuration
    selects -- a partition of a model the sharded runtime would refuse
    to execute should fail its preflight here, with evidence chains.
    Returns ``(report, manifest)`` where the manifest is the planned
    document when planning was requested and succeeded, the caller's
    document when verifying, and ``None`` when the config/graph layers
    already failed.  S-findings never suppress the manifest: they are
    verdicts about model code, not about the shard assignment.
    """
    ctx = LintContext(
        settings=settings,
        max_pairs=max_pairs,
        partition_k=k,
        manifest=manifest,
        partition_tolerance=tolerance,
        lookahead_threshold=lookahead_threshold,
    )
    report = run_rules(ctx, [CONFIG_LAYER], subject=subject)
    if report.has_errors():
        return report, None
    layers = [GRAPH_LAYER, PARTITION_LAYER]
    if shard:
        layers.append(SHARD_LAYER)
    report.merge(run_rules(ctx, layers, subject=subject))
    return report, ctx.partition().manifest


def lint_config_dict(
    config: dict,
    overrides: Iterable[str] = (),
    graph: bool = True,
    max_pairs: int = 512,
    subject: Optional[str] = None,
) -> LintReport:
    """Lint an in-memory config dict (resolving overrides first)."""
    require_max_pairs(max_pairs)
    try:
        settings = Settings.from_dict(config, overrides=overrides)
    except SettingsError as exc:
        report = LintReport(subject=subject)
        report.add(
            Finding(
                "C002",
                Severity.ERROR,
                f"configuration does not resolve: {exc}",
            )
        )
        return report
    return lint_settings(
        settings, graph=graph, max_pairs=max_pairs, subject=subject
    )


def lint_sources(
    paths: Iterable[str],
    subject: Optional[str] = None,
    layers: Optional[Iterable[str]] = None,
) -> LintReport:
    """Run the source-file AST layers (determinism/dataflow/partition).

    ``layers`` restricts the run; non-source layers in it are ignored.
    The shard layer joins only on explicit request (``--layer shard``)
    -- it classifies registered model classes defined in the files, so
    the caller must have imported them (``sslint --import``).
    """
    if layers is None:
        wanted = list(SOURCE_LAYERS)
    else:
        requested = _layer_tuple(layers)
        wanted = [
            layer for layer in SOURCE_LAYERS + (SHARD_LAYER,)
            if layer in requested
        ]
    ctx = LintContext(source_paths=list(paths))
    source_layers = set(wanted) & set(SOURCE_LAYERS)
    if source_layers:
        # First: a class-level layer's call graphs reuse these trees.
        ctx.sources()
    report = run_rules(ctx, wanted, subject=subject)
    if source_layers and DATAFLOW_LAYER not in source_layers:
        # Every source layer skips an unparseable file, so each says so.
        report.extend(factory.create(LintRule, "E001").check(ctx))
    return report


def lint_sweep(
    sweep,
    graph: bool = False,
    subject: Optional[str] = None,
    max_jobs: int = 512,
) -> LintReport:
    """Lint a Sweep before fan-out: configs plus payload pickling.

    Called by ``sssweep`` before any worker process spawns, so payload
    problems surface with the sweep's name instead of as a worker-side
    traceback (or, worse, a silent inline fallback).  Beyond the base
    config, every job's *resolved* config is config-layer linted, so a
    swept value that breaks a constraint (say, an odd ``num_vcs`` under
    dateline routing) is reported with its sweep point id before any
    simulation starts.
    """
    subject = subject or f"sweep:{sweep.name}"
    report = lint_config_dict(
        sweep.base_config, graph=graph, subject=subject
    )
    seen = {(f.rule_id, f.config_path, f.message) for f in report.findings}
    jobs = sweep.jobs or sweep.generate_jobs()
    if len(jobs) > max_jobs:
        report.add(
            Finding(
                "D005",
                Severity.INFO,
                f"sweep has {len(jobs)} jobs; per-job config lint covers "
                f"only the first {max_jobs}",
            )
        )
    for job in jobs[:max_jobs]:
        job_report = lint_config_dict(
            sweep.base_config, overrides=job.overrides, graph=False
        )
        for finding in job_report.findings:
            key = (finding.rule_id, finding.config_path, finding.message)
            if key in seen:
                continue
            seen.add(key)
            finding.message = f"[{job.job_id}] {finding.message}"
            report.add(finding)
    ctx = LintContext(sweep=sweep)
    report.merge(run_rules(ctx, [DETERMINISM_LAYER], subject=subject))
    return report
