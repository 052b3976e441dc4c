"""sslint: static analysis of an experiment before it runs.

Lints JSON settings files (config + graph layers), Python source files
(determinism/dataflow/partition AST layers), and the built-in benchmark
configurations::

    sslint experiment.json network.num_vcs=uint=4
    sslint examples/ --format json
    sslint examples/ --format sarif > lint.sarif
    sslint --builtin all
    sslint experiment.json --import my_models   # user models (§III-D)
    sslint experiment.json --layer shard        # shard-purity S-rules
    sslint --import my_models my_models.py --layer shard
    sslint src/repro --layer perf               # hot-path H-rules
    sslint src/ --write-baseline lint-baseline.json
    sslint src/ --baseline lint-baseline.json   # new findings only
    sslint --list-rules
    sslint --list-rules --layer partition

Partition planning and verification (docs/PARTITIONING.md)::

    sslint experiment.json --partition 4
    sslint experiment.json --partition 4 --manifest-out plan.json
    sslint --builtin all --partition 4 --manifest-out plans/
    sslint experiment.json --manifest plan.json   # verify a manifest

``--partition K`` plans a deterministic k-way shard assignment for each
config target and runs the P-rules over the planned manifest;
``--manifest FILE`` instead verifies an existing manifest against the
network the (single) config target constructs.

Exit status: 0 when no error-severity finding was produced, 1
otherwise (warnings and infos never fail the run), 2 on usage errors.
With ``--baseline``, findings recorded in the baseline are suppressed
before the exit status is computed, so CI gates on new findings only.
See docs/LINTING.md for the rule catalog.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys
from typing import Dict, List, Optional, Tuple

from repro.config.settings import Settings, SettingsError
from repro.lint import (
    ALL_LAYERS,
    PERF_LAYER,
    SHARD_LAYER,
    SOURCE_LAYERS,
    Finding,
    LintReport,
    Severity,
    lint_partition,
    lint_settings,
    lint_sources,
    rule_catalog,
)


def _split_args(items: List[str]) -> Tuple[List[str], List[str]]:
    """Separate file/directory paths from path=type=value overrides."""
    paths, overrides = [], []
    for item in items:
        (overrides if "=" in item else paths).append(item)
    return paths, overrides


def _collect_targets(
    paths: List[str], parser: argparse.ArgumentParser
) -> Tuple[List[pathlib.Path], List[pathlib.Path]]:
    """Expand paths into (config files, python source files)."""
    configs: List[pathlib.Path] = []
    sources: List[pathlib.Path] = []
    for text in paths:
        path = pathlib.Path(text)
        if not path.exists():
            parser.error(f"no such file or directory: {text}")
        if path.is_dir():
            configs.extend(sorted(path.rglob("*.json")))
            sources.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            sources.append(path)
        else:
            configs.append(path)
    return configs, sources


def _builtin_configs(
    name: str, parser: argparse.ArgumentParser
) -> List[Tuple[str, str, dict]]:
    """Resolve --builtin NAME into (subject, slug, config dict) jobs."""
    from repro import configs as builders

    available = sorted(
        attr
        for attr in dir(builders)
        if attr.endswith("_config") and callable(getattr(builders, attr))
    )
    wanted = available if name == "all" else [name]
    jobs = []
    for builder_name in wanted:
        builder = getattr(builders, builder_name, None)
        if builder is None or not callable(builder):
            parser.error(
                f"unknown builtin config {name!r}; available: "
                f"{', '.join(available + ['all'])}"
            )
        jobs.append(
            (f"builtin:{builder_name}", builder_name, builder())
        )
    return jobs


def _partition_summary(manifest: dict) -> str:
    """One text line summarizing a planned/verified manifest."""
    lookahead = manifest.get("lookahead", {}).get("global")
    return (
        f"partition: k={manifest.get('k')}, "
        f"{manifest.get('num_components')} components, "
        f"{len(manifest.get('cut_channels', []))} cut channel(s), "
        f"lookahead {lookahead if lookahead is not None else 'unbounded'}"
    )


def _write_manifests(
    destination: str, produced: List[Tuple[str, dict]]
) -> List[str]:
    """Write manifests to a file (single) or directory (any count)."""
    from repro.partition import write_manifest

    out = pathlib.Path(destination)
    written: List[str] = []
    as_directory = (
        out.is_dir()
        or destination.endswith(("/", "\\"))
        or len(produced) > 1
    )
    if not as_directory:
        slug, manifest = produced[0]
        out.parent.mkdir(parents=True, exist_ok=True)
        write_manifest(str(out), manifest)
        written.append(str(out))
        return written
    out.mkdir(parents=True, exist_ok=True)
    for slug, manifest in produced:
        path = out / f"{slug}.partition.json"
        write_manifest(str(path), manifest)
        written.append(str(path))
    return written


def sslint_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sslint",
        description="Static analysis of configs, network wiring, and "
        "parallel-sweep determinism",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="JSON settings files, Python source files, directories "
        "(recursed), and path=type=value overrides applied to every "
        "config target",
    )
    parser.add_argument(
        "--builtin",
        metavar="NAME",
        default=None,
        help="lint a built-in benchmark config from repro.configs "
        "(or 'all')",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (json is the CI format; sarif is the "
        "SARIF 2.1.0 interchange format for code-review tooling)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="suppress findings recorded in this baseline file, so the "
        "exit status gates on new findings only",
    )
    parser.add_argument(
        "--write-baseline", metavar="FILE", default=None,
        help="record every current finding's fingerprint to FILE and "
        "exit 0 (adopt-now, fix-later workflow)",
    )
    parser.add_argument(
        "--no-graph", action="store_true",
        help="skip the graph layer (no network construction)",
    )
    parser.add_argument(
        "--import", dest="imports", action="append", metavar="MODULE",
        default=[],
        help="import a module first (registers user models; repeatable)",
    )
    parser.add_argument(
        "--max-pairs", type=int, default=512,
        help="terminal pairs sampled by the dependency trace",
    )
    parser.add_argument(
        "--layer", action="append", choices=ALL_LAYERS, default=None,
        help="restrict linting (and --list-rules) to this layer; "
        "repeatable",
    )
    parser.add_argument(
        "--partition", type=int, metavar="K", default=None,
        help="plan a deterministic K-way partition of each config "
        "target and verify it with the P-rules "
        "(docs/PARTITIONING.md)",
    )
    parser.add_argument(
        "--manifest", metavar="FILE", default=None,
        help="verify this partition manifest against the single config "
        "target instead of planning one",
    )
    parser.add_argument(
        "--manifest-out", metavar="PATH", default=None,
        help="write the planned manifest(s): a file for one config "
        "target, a directory for several",
    )
    parser.add_argument(
        "--partition-tolerance", type=float, metavar="T", default=None,
        help="shard weight balance tolerance for planning and P004 "
        "(default 1.5)",
    )
    parser.add_argument(
        "--lookahead-threshold", type=int, metavar="TICKS", default=1,
        help="minimum acceptable shard lookahead for P003 (default 1)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        catalog = rule_catalog()
        if args.layer:
            catalog = {
                rule_id: info
                for rule_id, info in catalog.items()
                if info["layer"] in args.layer
            }
        if args.format == "json":
            json.dump(catalog, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            for rule_id, info in sorted(catalog.items()):
                print(f"{rule_id}  [{info['layer']}]  {info['description']}")
        return 0

    partition_mode = args.partition is not None or args.manifest is not None
    if args.partition is not None and args.manifest is not None:
        parser.error("--partition and --manifest are mutually exclusive")
    if args.manifest_out is not None and args.partition is None:
        parser.error("--manifest-out requires --partition")

    for module in args.imports:
        sys.path.insert(0, ".")
        try:
            importlib.import_module(module)
        except ImportError as exc:
            parser.error(f"cannot import {module!r}: {exc}")

    paths, overrides = _split_args(args.targets)
    if not paths and args.builtin is None:
        parser.error("nothing to lint: pass files/directories or --builtin")

    config_files, source_files = _collect_targets(paths, parser)
    graph = not args.no_graph
    reports: List[LintReport] = []
    manifests: Dict[str, dict] = {}  # subject -> planned/verified manifest
    produced: List[Tuple[str, dict]] = []  # (slug, manifest) for writing

    # (subject, slug, settings-or-None, load-error finding) config jobs.
    jobs: List[Tuple[str, str, Optional[Settings], Optional[Finding]]] = []
    for config_file in config_files:
        subject = str(config_file)
        try:
            settings = Settings.from_file(config_file, overrides=overrides)
            jobs.append((subject, config_file.stem, settings, None))
        except (SettingsError, json.JSONDecodeError, OSError) as exc:
            jobs.append((subject, config_file.stem, None, Finding(
                "C002",
                Severity.ERROR,
                f"configuration does not resolve: {exc}",
            )))
    if args.builtin is not None:
        for subject, slug, config in _builtin_configs(args.builtin, parser):
            try:
                settings = Settings.from_dict(config, overrides=overrides)
                jobs.append((subject, slug, settings, None))
            except SettingsError as exc:
                jobs.append((subject, slug, None, Finding(
                    "C002",
                    Severity.ERROR,
                    f"configuration does not resolve: {exc}",
                )))

    manifest_doc: Optional[dict] = None
    if args.manifest is not None:
        from repro.partition import ManifestError, load_manifest

        if len(jobs) != 1:
            parser.error(
                "--manifest verifies against exactly one config target "
                f"(got {len(jobs)})"
            )
        try:
            manifest_doc = load_manifest(args.manifest)
        except (OSError, ValueError, json.JSONDecodeError,
                ManifestError) as exc:
            parser.error(f"cannot load manifest: {exc}")

    for subject, slug, settings, load_error in jobs:
        if load_error is not None:
            report = LintReport(subject=subject)
            report.add(load_error)
            reports.append(report)
            continue
        if partition_mode:
            report, manifest = lint_partition(
                settings,
                k=args.partition,
                manifest=manifest_doc,
                tolerance=args.partition_tolerance,
                lookahead_threshold=args.lookahead_threshold,
                max_pairs=args.max_pairs,
                subject=subject,
            )
            if manifest is not None:
                manifests[subject] = manifest
                if args.partition is not None:
                    produced.append((slug, manifest))
            reports.append(report)
        else:
            reports.append(
                lint_settings(
                    settings,
                    graph=graph,
                    max_pairs=args.max_pairs,
                    subject=subject,
                    layers=args.layer,
                )
            )

    if source_files and (
        args.layer is None
        or any(layer in SOURCE_LAYERS + (SHARD_LAYER, PERF_LAYER)
               for layer in args.layer)
    ):
        reports.append(
            lint_sources(
                [str(path) for path in source_files],
                subject="sources",
                layers=args.layer,
            )
        )

    if args.manifest_out is not None and produced:
        for path in _write_manifests(args.manifest_out, produced):
            print(f"wrote manifest to {path}", file=sys.stderr)

    if args.write_baseline is not None:
        from repro.lint.sarif import write_baseline

        count = write_baseline(args.write_baseline, reports)
        print(
            f"recorded {count} fingerprint(s) to {args.write_baseline}",
            file=sys.stderr,
        )
        return 0

    if args.baseline is not None:
        from repro.lint.sarif import apply_baseline, load_baseline

        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            parser.error(f"cannot load baseline: {exc}")
        reports = apply_baseline(reports, baseline)

    if args.format == "json":
        payload = {
            "reports": [json.loads(report.to_json()) for report in reports],
            "errors": sum(len(report.errors) for report in reports),
        }
        if partition_mode:
            payload["manifests"] = manifests
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    elif args.format == "sarif":
        from repro.lint.sarif import to_sarif

        json.dump(to_sarif(reports), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for report in reports:
            print(report.render_text())
            if report.subject in manifests:
                print(_partition_summary(manifests[report.subject]))
    return 1 if any(report.has_errors() for report in reports) else 0


if __name__ == "__main__":
    sys.exit(sslint_main())
