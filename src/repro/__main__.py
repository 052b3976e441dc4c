"""Command line entry point (paper Listing 1).

Usage::

    supersim myconfig.json \\
        network.router.architecture=string=my_arch \\
        network.concentration=uint=16

or equivalently ``python -m repro myconfig.json <overrides...>``.

The first argument is a JSON settings file; every following argument is
a ``path=type=value`` override.  On completion a JSON summary is printed
to stdout.  An optional top-level ``output`` block controls artifacts::

    "output": {
      "message_log": "messages.jsonl",   # SSParse input
      "summary": "summary.json"
    }
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.config.settings import Settings
from repro.sim import Simulation, output_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supersim",
        description="Flit-level interconnection network simulator "
        "(SuperSim reproduction)",
    )
    parser.add_argument("config", help="JSON settings file")
    parser.add_argument(
        "overrides",
        nargs="*",
        help="settings overrides of the form path=type=value",
    )
    parser.add_argument(
        "--max-time",
        type=int,
        default=None,
        help="hard stop at this simulated tick (overrides simulator.max_time)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the summary on stdout"
    )
    parser.add_argument(
        "--progress",
        type=int,
        metavar="TICKS",
        default=None,
        help="print a progress line every TICKS simulated ticks",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="lint the resolved config before simulating; abort on "
        "error-severity findings (see docs/LINTING.md)",
    )
    parser.add_argument(
        "--lint-only",
        action="store_true",
        help="lint the resolved config and exit without simulating",
    )
    parser.add_argument(
        "--partition-plan",
        type=int,
        metavar="K",
        default=None,
        help="plan a K-way partition of the resolved config, verify it "
        "with the P-rules, print the manifest JSON to stdout, and exit "
        "without simulating (see docs/PARTITIONING.md)",
    )
    parser.add_argument(
        "--partition",
        type=int,
        metavar="K",
        default=None,
        help="run the simulation sharded K ways under the PDES runtime "
        "(conservative windows; results are digest-equal to a "
        "single-process run -- see docs/PARTITIONING.md)",
    )
    parser.add_argument(
        "--shard-workers",
        type=int,
        metavar="N",
        default=0,
        help="worker processes for --partition: 0 (default) executes "
        "every shard in-process, K starts one process per shard "
        "(forked on Linux, else spawned)",
    )
    parser.add_argument(
        "--sanitize",
        metavar="NAMES",
        default=None,
        help="attach runtime sanitizers: 'all' or a comma-separated "
        "subset of credit,flit,event,det (see docs/SANITIZERS.md); "
        "exits 3 at the first invariant violation",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="",
        default=None,
        metavar="PSTATS",
        help="run under cProfile and print the hottest functions to "
        "stderr; with an argument, also dump the raw pstats data "
        "to that path (inspect with python -m pstats)",
    )
    parser.add_argument(
        "--sweep",
        action="append",
        metavar="SHORT=path=type=v1,v2,...",
        default=None,
        help="sweep a setting over several values instead of running "
        "once; repeat for a cross product (see the sssweep tool)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes for --sweep mode (default: all cores)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.partition is not None:
        # Refused rather than dropped: a sweep runs every point
        # single-process, and the sharded path runs no profiler.
        if args.sweep:
            parser.error("--partition cannot be combined with --sweep")
        if args.profile is not None:
            parser.error("--partition cannot be combined with --profile")
    if args.sweep:
        # Delegate to the sssweep CLI: one simulation per value combo,
        # fanned out across --workers processes.
        from repro.tools.cli import sssweep_main

        sweep_argv: List[str] = [args.config]
        for spec in args.sweep:
            sweep_argv.extend(["--var", spec])
        sweep_argv.extend(["--workers", str(args.workers)])
        if args.max_time is not None:
            sweep_argv.extend(["--max-time", str(args.max_time)])
        if args.quiet:
            sweep_argv.append("--quiet")
        if args.sanitize:
            # Sweep mode cannot afford sanitizers on every point; the
            # equivalent is a sanitized smoke run of the base point.
            sweep_argv.append("--smoke")
        return sssweep_main(sweep_argv)
    overrides = list(args.overrides)
    if args.progress:
        overrides.append(f"simulator.monitor.period=uint={args.progress}")
        overrides.append("simulator.monitor.print=bool=true")
    settings = Settings.from_file(args.config, overrides)
    if args.partition_plan is not None:
        from repro.lint import lint_partition
        from repro.partition import to_canonical_json

        report, manifest = lint_partition(
            settings, k=args.partition_plan, subject=args.config
        )
        if report.findings:
            print(report.render_text(), file=sys.stderr)
        if report.has_errors() or manifest is None:
            print("partition planning failed; no manifest emitted",
                  file=sys.stderr)
            return 1
        sys.stdout.write(to_canonical_json(manifest))
        return 0
    if args.lint or args.lint_only:
        from repro.lint import lint_settings

        report = lint_settings(settings, subject=args.config)
        if report.findings or args.lint_only:
            print(report.render_text(), file=sys.stderr)
        if args.lint_only:
            return 1 if report.has_errors() else 0
        if report.has_errors():
            print("lint found errors; not simulating", file=sys.stderr)
            return 1
    if args.partition is not None:
        from repro.factory.registry import FactoryError
        from repro.partition.runtime import PartitionRuntimeError, run_sharded
        from repro.sanitize import SanitizerError

        config = settings.raw()
        if args.max_time is not None:
            config.setdefault("simulator", {})["max_time"] = args.max_time
        try:
            results = run_sharded(
                config,
                k=args.partition,
                shard_workers=args.shard_workers,
                sanitize=args.sanitize or "",
            )
        except FactoryError as exc:
            print(f"supersim: --sanitize: {exc}", file=sys.stderr)
            return 2
        except SanitizerError as exc:
            print(f"sanitizer violation: {exc}", file=sys.stderr)
            return 3
        except PartitionRuntimeError as exc:
            print(f"supersim: --partition: {exc}", file=sys.stderr)
            return 2
        summary = results.summary()
        output = output_paths(settings)
        log_path = output["message_log"]
        if log_path:
            with open(log_path, "w", encoding="utf-8") as handle:
                for record in results.records:
                    handle.write(json.dumps(record.to_dict()))
                    handle.write("\n")
            summary["message_log"] = {
                "path": log_path,
                "records": len(results.records),
            }
        summary_path = output["summary"]
        if summary_path:
            with open(summary_path, "w", encoding="utf-8") as handle:
                json.dump(summary, handle, indent=2)
        if not args.quiet:
            json.dump(summary, sys.stdout, indent=2)
            sys.stdout.write("\n")
            # Host time, so stderr: stdout stays comparable across runs.
            timing = results.timing()
            shards = "; ".join(
                "shard {shard}: compute {compute_s:.3f} s, serialize "
                "{serialize_s:.3f} s, wait {wait_s:.3f} s".format(**shard)
                for shard in timing["shards"]
            )
            print(
                "supersim: --partition: startup {startup_s:.3f} s, "
                "{windows} windows {windows_s:.3f} s (critical-path compute "
                "{critical_compute_s:.3f} s), finish {finish_s:.3f} s, "
                "peak in flight {peak_in_flight}; ".format(**timing) + shards,
                file=sys.stderr,
            )
        return 0 if results.drained else 1
    simulation = Simulation(settings)
    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    if args.sanitize:
        from repro.factory.registry import FactoryError
        from repro.sanitize import SanitizerError, attach_sanitizers

        try:
            with attach_sanitizers(simulation, args.sanitize) as suite:
                results = simulation.run(max_time=args.max_time)
                suite.finish()
                sanitizer_report = suite.report()
        except FactoryError as exc:
            print(f"supersim: --sanitize: {exc}", file=sys.stderr)
            return 2
        except SanitizerError as exc:
            print(f"sanitizer violation: {exc}", file=sys.stderr)
            return 3
        summary = results.summary()
        summary["sanitizers"] = sanitizer_report
    else:
        results = simulation.run(max_time=args.max_time)
        summary = results.summary()
    if profiler is not None:
        profiler.disable()
        import pstats

        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
        if args.profile:
            stats.dump_stats(args.profile)
            print(f"pstats dump written to {args.profile}", file=sys.stderr)

    log_path = simulation.output["message_log"]
    if log_path:
        count = simulation.message_log.write_jsonl(log_path)
        summary["message_log"] = {"path": log_path, "records": count}
    summary_path = simulation.output["summary"]
    if summary_path:
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)

    if not args.quiet:
        json.dump(summary, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0 if results.drained else 1


if __name__ == "__main__":
    sys.exit(main())
