"""The benchmark's child process: one run of the user's pipeline.

``python -m bench.pipeline --kind K --config FILE --out PREFIX`` does
what ``supersim FILE`` followed by ``ssparse`` (or ``sssweep``, or
``supersim --partition 2 --shard-workers 2``) costs a user, in a fresh
interpreter, and writes one JSON result to ``PREFIX.result.json``.  The
parent (``bench.run``) times the whole process and checks the outputs.

With ``--trace`` the pipeline calls are wrapped in spans and, after the
pipeline, the run is repeated under ``cProfile`` to fold host time by
``repro`` layer.  Timed repetitions never pass ``--trace``.
"""

import time

T0 = time.perf_counter()  # the child's first line, before ``import repro``

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from bench.trace import (  # noqa: E402
    Tracer,
    durations,
    fold_profile,
    ncalls,
    ncalls_named,
    self_times,
    sum_by_name,
)

#: Sweep axes as data (name, short name, values, override template):
#: 2 x 2 x 4 = 16 jobs, the four rates all below saturation.
SWEEP_AXES = [
    ("Granularity", "G", ["vc", "port"],
     "network.router.congestion_sensor.granularity=string={}"),
    ("Source", "S", ["output", "downstream"],
     "network.router.congestion_sensor.source=string={}"),
    ("Rate", "R", [0.1, 0.2, 0.3, 0.4],
     "workload.applications.0.injection_rate=float={}"),
]
SWEEP_JOBS = math.prod(len(axis[2]) for axis in SWEEP_AXES)
SWEEP_WORKERS = 2
SHARD_K = 2


def flit_hops(network) -> int:
    """Simulated work: flits carried, summed over every flit channel."""
    return sum(channel.flits_carried for channel in network.flit_channels)


def collect_with_hops(results) -> dict:
    """Sweep row: the default summary plus the job's flit-hops.

    Module-level so it pickles to the sweep's worker processes.
    """
    row = results.summary()
    row["flit_hops"] = flit_hops(results.network)
    row["messages"] = len(results.log)
    return row


def write_records(records, path: str) -> None:
    """The merged sharded message log, as ``supersim --partition`` writes it."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict()))
            handle.write("\n")


def build_sweep(config: dict):
    from repro.tools.sssweep import Sweep

    sweep = Sweep(config, name="bench", collect=collect_with_hops)
    for name, short_name, values, template in SWEEP_AXES:
        sweep.add_variable(name, short_name, values, template.format)
    return sweep


class LintFailed(RuntimeError):
    pass


def _require_clean(report) -> None:
    if report.has_errors():
        raise LintFailed(report.render_text())


# -- the three pipelines -------------------------------------------------------
# Each fills ``result`` and stamps ``marks["run_start"/"run_end"]`` around
# the run call whose wall time divides flit_hops.


def run_single(config_path, out, tracer, marks, result):
    with tracer.span("import"):
        from repro import Settings, Simulation
        from repro.lint import lint_settings
    with tracer.span("config.load"):
        settings = Settings.from_file(config_path)
    with tracer.span("lint.config"):
        _require_clean(lint_settings(settings, subject=config_path))
    with tracer.span("sim.build"):
        simulation = Simulation(settings)
    marks["run_start"] = time.perf_counter()
    with tracer.span("sim.run"):
        results = simulation.run()
    marks["run_end"] = time.perf_counter()
    with tracer.span("stats.summary"):
        result["summary"] = results.summary()
    log_path = out + ".messages.jsonl"
    with tracer.span("stats.log_write"):
        result["messages"] = simulation.message_log.write_jsonl(log_path)
    with tracer.span("tools.ssparse"):
        # ssparse is the user's second command: its import is its cost.
        from repro.tools import ssparse

        result["parsed"] = ssparse.parse_file(log_path, ["+app=0"]).summary()
    result["flit_hops"] = flit_hops(simulation.network)
    result["log_path"] = log_path
    result["log_bytes"] = os.path.getsize(log_path)
    return settings


def run_sweep(config_path, out, tracer, marks, result):
    with tracer.span("import"):
        from repro import Settings
        from repro.lint import lint_sweep
    with tracer.span("config.load"):
        settings = Settings.from_file(config_path)
    sweep = build_sweep(settings.raw())
    with tracer.span("lint.config"):
        _require_clean(lint_sweep(sweep))
    marks["run_start"] = time.perf_counter()
    with tracer.span("tools.sweep_run"):
        sweep.run(workers=SWEEP_WORKERS)
    marks["run_end"] = time.perf_counter()
    with tracer.span("tools.sweep_csv"):
        sweep.write_csv(out + ".sweep.csv")
    rows = sweep.to_rows()
    result["rows"] = rows
    result["flit_hops"] = sum(row.get("flit_hops", 0) for row in rows)
    return settings


def run_sharded(config_path, out, tracer, marks, result):
    with tracer.span("import"):
        from repro import Settings
        from repro.lint import lint_partition
        from repro.partition.runtime import run_sharded as repro_run_sharded
    with tracer.span("config.load"):
        settings = Settings.from_file(config_path)
    with tracer.span("partition.plan"):
        report, manifest = lint_partition(settings, k=SHARD_K, subject=config_path)
        _require_clean(report)
    marks["run_start"] = time.perf_counter()
    with tracer.span("partition.run"):
        results = repro_run_sharded(
            settings.raw(), shard_workers=SHARD_K, manifest=manifest
        )
    marks["run_end"] = time.perf_counter()
    with tracer.span("stats.summary"):
        result["summary"] = results.summary()
    log_path = out + ".messages.jsonl"
    with tracer.span("stats.log_write"):
        write_records(results.records, log_path)
    result["messages"] = len(results.records)
    result["log_path"] = log_path
    result["log_bytes"] = os.path.getsize(log_path)
    result["partition"] = {
        "windows": results.windows,
        "records_exchanged": results.records_exchanged,
    }
    marks["manifest"] = manifest
    return settings


PIPELINES = {"single": run_single, "sweep": run_sweep, "sharded": run_sharded}


# -- traced extras: reference runs and the profile pass ------------------------


def trace_extras(kind, settings, tracer, marks) -> dict:
    """Reference runs (unprofiled, in spans) then one profiled pass.

    Returns the layer fold and the exact counts; stage times come from
    the spans.  Runs after the pipeline, outside its root span.
    """
    import cProfile
    import pstats

    import repro
    from repro import Simulation
    from repro.net.channel import Channel, CreditChannel
    from repro.net.device import PortedDevice

    profiler = cProfile.Profile()
    counts = {}

    def note_network(simulation):
        network = simulation.network
        counts["sim.routers"] = network.num_routers
        counts["sim.flit_channels"] = len(network.flit_channels)
        counts["sim.terminals"] = network.num_terminals

    if kind == "single":
        with tracer.span("profile.build"):
            simulation = Simulation(settings)
        with tracer.span("profile.run"):
            results = profiler.runcall(simulation.run)
        note_network(simulation)
        counts["core.events"] = results.summary()["events_executed"]
        counts["flit_hops"] = flit_hops(simulation.network)
        counts["workload.messages"] = len(simulation.message_log)
    elif kind == "sweep":
        sweep = build_sweep(settings.raw())
        events = hops = messages = 0
        # Serial, in-process, unprofiled: per-job phase spans, and the
        # serial sum of job times that tools.sweep_overhead_s subtracts.
        with tracer.span("ref.serial_jobs"):
            for job in sweep.generate_jobs():
                with tracer.span("job"):
                    with tracer.span("config.load"):
                        job_settings = sweep.settings_for(job)
                    with tracer.span("sim.build"):
                        simulation = Simulation(job_settings)
                    with tracer.span("sim.run"):
                        results = simulation.run()
                    with tracer.span("stats.summary"):
                        row = collect_with_hops(results)
                events += row["events_executed"]
                hops += row["flit_hops"]
                messages += len(simulation.message_log)
        note_network(simulation)
        for job in sweep.jobs:
            with tracer.span("profile.build"):
                simulation = Simulation(sweep.settings_for(job))
            with tracer.span("profile.run"):
                profiler.runcall(simulation.run)
        counts["core.events"] = events
        counts["flit_hops"] = hops
        counts["workload.messages"] = messages
        counts["tools.jobs"] = len(sweep.jobs)
    else:
        from repro.partition.runtime import run_sharded as repro_run_sharded

        config, manifest = settings.raw(), marks["manifest"]
        with tracer.span("ref.single"):
            with tracer.span("sim.build"):
                simulation = Simulation(settings)
            with tracer.span("sim.run"):
                simulation.run()
        note_network(simulation)
        counts["flit_hops"] = flit_hops(simulation.network)
        counts["workload.messages"] = len(simulation.message_log)
        with tracer.span("ref.inproc"):
            repro_run_sharded(config, shard_workers=0, manifest=manifest)
        # The profiler cannot follow spawned workers, so the fold is of
        # the in-process sharded run: both shards plus the coordinator.
        with tracer.span("profile.run"):
            results = profiler.runcall(
                repro_run_sharded, config, shard_workers=0, manifest=manifest
            )
        counts["core.events"] = results.events_executed

    stats = pstats.Stats(profiler).stats
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    counts["net.flit_deliveries"] = ncalls(stats, Channel._deliver_item)
    counts["net.credit_deliveries"] = ncalls(stats, CreditChannel._deliver_item)
    counts["router.steps"] = ncalls_named(stats, package_dir, "router", "_step")
    # Interfaces inject through PortedDevice.send_flit; every other flit
    # put on a channel (or a shard-cut proxy) was forwarded by a router.
    counts["router.flits_forwarded"] = (
        ncalls(stats, Channel.send_flit)
        + ncalls_named(stats, package_dir, "partition", "send_flit")
        - ncalls(stats, PortedDevice.send_flit)
    )
    counts["routing.route_calls"] = ncalls_named(
        stats, package_dir, "routing", "route"
    )
    return {"fold": fold_profile(stats, package_dir), "counts": counts}


# -- entry ---------------------------------------------------------------------


def main(t0: float, argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=sorted(PIPELINES), required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True, help="output path prefix")
    parser.add_argument("--run-id", default="untraced")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-header", default="{}",
                        help="JSON written as the trace file's first line")
    args = parser.parse_args(argv)

    tracer = Tracer(args.run_id, enabled=args.trace)
    marks, result = {}, {}
    with tracer.span("pipeline"):
        settings = PIPELINES[args.kind](
            args.config, args.out, tracer, marks, result
        )
    result["setup_s"] = marks["run_start"] - t0
    result["run_s"] = marks["run_end"] - marks["run_start"]
    if args.trace:
        result.update(trace_extras(args.kind, settings, tracer, marks))
        spans = tracer.spans
        result["spans"] = sum_by_name(spans, durations(spans))
        result["self"] = sum_by_name(spans, self_times(spans))
        directory, name = os.path.split(args.out)
        tracer.write_jsonl(
            os.path.join(directory, f"trace_{name}.jsonl"),
            json.loads(args.trace_header),
        )
    with open(args.out + ".result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    # Re-import under the package name so that what the sweep pickles
    # (collect_with_hops) resolves in spawned workers.
    from bench.pipeline import main as _main

    sys.exit(_main(T0))
