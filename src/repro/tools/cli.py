"""Command line executables for the tool suite (paper §V).

SSParse, SSPlot, and SSSweep are usable both as Python packages and as
command line tools; these are the CLI faces:

``ssparse``::

    ssparse messages.jsonl +app=0 +send=500-1000 --csv out.csv
    ssparse shard0.jsonl shard1.jsonl +app=0

prints the latency/hop summary of the filtered records and optionally
exports raw samples.  Several logs (e.g. one per PDES shard) are merged
into a single delivery-ordered stream before filtering.

``ssplot``::

    ssplot messages.jsonl --kind percentile --csv fig.csv
    ssplot messages.jsonl --kind timeline --bin 250
    ssplot messages.jsonl --kind cdf

renders the requested plot as ASCII on stdout and optionally exports
the numeric series as CSV.

``sssweep``::

    sssweep base.json \\
        --var "IR=workload.applications[0].injection_rate=float=0.1,0.2,0.3" \\
        --var "S=simulator.seed=uint=1,2,3" \\
        --workers 8 --csv sweep.csv --html sweep.html

runs the cross product of all ``--var`` values (here 9 simulations)
across ``--workers`` processes and prints the result rows as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.tools import ssplot
from repro.tools.ssparse import parse_file, parse_records


def ssparse_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ssparse",
        description="Parse one or more simulation message logs and "
        "report latency/hop statistics",
    )
    parser.add_argument(
        "logs",
        nargs="+",
        metavar="log",
        help="JSONL message log(s); several (e.g. one per shard) are "
        "merged in delivery order",
    )
    parser.add_argument(
        "filters",
        nargs="*",
        help="filters like +app=0, -sampled=false, +send=500-1000",
    )
    parser.add_argument("--csv", help="also export raw samples as CSV")
    args = parser.parse_args(argv)

    # argparse cannot split "log... filter..." itself: anything after
    # the first positional that starts with +/- (or fails to open) is a
    # filter, the rest are log paths.
    logs: List[str] = []
    filters: List[str] = list(args.filters)
    for item in args.logs:
        if filters or item[:1] in "+-" or not os.path.exists(item):
            filters.append(item)
        else:
            logs.append(item)
    if not logs:
        parser.error(f"no readable log among {args.logs!r}")

    if len(logs) == 1:
        result = parse_file(logs[0], filters)
    else:
        from repro.stats.records import read_jsonl

        merged = []
        for path in logs:
            merged.extend(read_jsonl(path))
        merged.sort(key=lambda r: (r.delivered_tick, r.message_id))
        result = parse_records(merged, filters)
    json.dump(result.summary(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    if args.csv:
        count = result.write_csv(args.csv)
        print(f"wrote {count} records to {args.csv}", file=sys.stderr)
    return 0 if len(result) else 1


_PLOT_KINDS = ("percentile", "pdf", "cdf", "timeline")


def ssplot_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ssplot",
        description="Render latency plots from a simulation message log",
    )
    parser.add_argument("log", help="JSONL message log from a simulation")
    parser.add_argument("filters", nargs="*",
                        help="ssparse-style record filters")
    parser.add_argument("--kind", choices=_PLOT_KINDS, default="percentile")
    parser.add_argument("--bin", type=int, default=100,
                        help="bin width in ticks (timeline only)")
    parser.add_argument("--latency", choices=("message", "network", "packet"),
                        default="message", help="which latency to plot")
    parser.add_argument("--csv", help="export the numeric series as CSV")
    parser.add_argument("--width", type=int, default=72)
    parser.add_argument("--height", type=int, default=20)
    args = parser.parse_args(argv)

    result = parse_file(args.log, args.filters)
    if not len(result):
        print("no records match the filters", file=sys.stderr)
        return 1

    if args.kind == "timeline":
        plot = ssplot.latency_vs_time(result.records, args.bin)
    else:
        distribution = result.latency(args.latency)
        if args.kind == "percentile":
            plot = ssplot.percentile_distribution(distribution)
        elif args.kind == "pdf":
            plot = ssplot.latency_pdf(distribution)
        else:
            plot = ssplot.latency_cdf(distribution)

    sys.stdout.write(plot.render_ascii(width=args.width, height=args.height))
    if args.csv:
        plot.write_csv(args.csv)
        print(f"wrote series to {args.csv}", file=sys.stderr)
    return 0


def _parse_sweep_var(spec: str):
    """Parse ``SHORT=path=type=v1,v2,...`` into sweep-variable pieces."""
    parts = spec.split("=", 3)
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"bad --var {spec!r}; expected SHORT=path=type=v1,v2,..."
        )
    short, path, type_name, raw_values = parts
    values = [v.strip() for v in raw_values.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"--var {spec!r} has no values")
    return short, path, type_name, values


def sssweep_main(argv: Optional[List[str]] = None) -> int:
    from repro.tools.sssweep import Sweep

    parser = argparse.ArgumentParser(
        prog="sssweep",
        description="Run a cross-product sweep of simulations from a "
        "base config, optionally across worker processes",
    )
    parser.add_argument("config", help="base JSON settings file")
    parser.add_argument(
        "--var",
        action="append",
        required=True,
        metavar="SHORT=path=type=v1,v2,...",
        help="a swept dimension; repeat for a cross product",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes (default: all cores)",
    )
    parser.add_argument("--max-time", type=int, default=None,
                        help="hard stop for every simulation")
    parser.add_argument("--job-timeout", type=float, default=None,
                        help="per-job wall-clock limit in seconds")
    parser.add_argument("--name", default="sweep")
    parser.add_argument("--csv", help="write result rows as CSV")
    parser.add_argument("--html", help="write the HTML index page")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the JSON rows on stdout")
    parser.add_argument("--no-lint", action="store_true",
                        help="skip the pre-fan-out lint of the base "
                        "config and sweep payloads")
    parser.add_argument("--partition", type=int, metavar="K", default=None,
                        help="pre-fan-out gate: plan and P-rule-verify a "
                        "K-way partition of the base config; abort on "
                        "errors (see docs/PARTITIONING.md)")
    parser.add_argument("--smoke", action="store_true",
                        help="before fanning out, run the base point "
                        "briefly under all runtime sanitizers "
                        "(see docs/SANITIZERS.md)")
    parser.add_argument("--smoke-ticks", type=int, default=1000,
                        metavar="TICKS",
                        help="simulated tick budget for the --smoke run "
                        "(default: 1000)")
    args = parser.parse_args(argv)

    with open(args.config, "r", encoding="utf-8") as handle:
        base_config = json.load(handle)

    sweep = Sweep(base_config, name=args.name, max_time=args.max_time)
    for spec in args.var:
        try:
            short, path, type_name, values = _parse_sweep_var(spec)
        except argparse.ArgumentTypeError as exc:
            parser.error(str(exc))
        sweep.add_variable(
            short, short, values,
            lambda v, path=path, type_name=type_name: f"{path}={type_name}={v}",
        )
    if not args.no_lint:
        # Lint before fanning out: a broken base config or unpicklable
        # payload should fail here, with config paths and rule ids, not
        # as one executor traceback per worker process.
        from repro.lint import lint_sweep

        report = lint_sweep(sweep)
        if report.findings:
            print(report.render_text(), file=sys.stderr)
        if report.has_errors():
            print("lint found errors; not launching sweep workers",
                  file=sys.stderr)
            return 2
    if args.partition is not None:
        # Partition gate: a sweep whose base config cannot be soundly
        # sharded should fail here, with rule ids, not after the PDES
        # runtime has fanned out k worker processes per point.
        from repro.config.settings import Settings, SettingsError
        from repro.lint import lint_partition

        try:
            base_settings = Settings.from_dict(base_config)
        except SettingsError as exc:
            print(f"partition gate: config does not resolve: {exc}",
                  file=sys.stderr)
            return 2
        report, manifest = lint_partition(
            base_settings, k=args.partition,
            subject=f"partition:{args.name}",
        )
        if report.findings:
            print(report.render_text(), file=sys.stderr)
        if report.has_errors():
            print("partition gate found errors; not launching sweep "
                  "workers", file=sys.stderr)
            return 2
        if not args.quiet and manifest is not None:
            lookahead = manifest["lookahead"]["global"]
            print(f"partition gate: k={args.partition}, "
                  f"{len(manifest['cut_channels'])} cut channel(s), "
                  f"lookahead {lookahead}", file=sys.stderr)
    if args.smoke:
        from repro.sanitize import SanitizerError

        try:
            report = sweep.sanitized_smoke(max_time=args.smoke_ticks)
        except SanitizerError as exc:
            print(f"sanitized smoke run failed: {exc}", file=sys.stderr)
            print("not launching sweep workers", file=sys.stderr)
            return 3
        if not args.quiet:
            checks = sum(r.get("checks", 0) for r in report.values())
            print(
                f"smoke: base point clean under sanitizers "
                f"({args.smoke_ticks} ticks, {checks} checks)",
                file=sys.stderr,
            )
    sweep.run(workers=args.workers, job_timeout=args.job_timeout)
    for job in sweep.jobs:
        if job.error:
            print(f"FAILED: {job.error}", file=sys.stderr)

    rows = sweep.to_rows()
    if args.csv:
        sweep.write_csv(args.csv)
        print(f"wrote {len(rows)} rows to {args.csv}", file=sys.stderr)
    if args.html:
        sweep.write_html_index(args.html)
        print(f"wrote index to {args.html}", file=sys.stderr)
    if not args.quiet:
        json.dump(rows, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    return 0 if not any(job.error for job in sweep.jobs) else 1
