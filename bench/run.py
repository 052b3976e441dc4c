"""The repo benchmark: one command, every metric by name.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S | --reps N]
                         [--trace [0|1]] [--aa]

(equivalently ``PYTHONPATH=src python -m bench.run``).  For each workload
it generates the config JSON from the seed into ``bench/out/``, runs the
user's pipeline on it in fresh child processes, one at a time, for
``--seconds``, checks the simulated results, and prints every metric
with its unit.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

This is a batch system, so the loop is closed: the next pipeline starts
when the previous one has ended, and throughput is work per host second
at the workload's fixed input size.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"bench: no simulator source at {SRC}; run from a full checkout")
for _path in (SRC, ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench.pipeline import SWEEP_WORKERS  # noqa: E402
from bench.trace import LAYERS  # noqa: E402
from bench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    Workload,
    by_name,
    write_config,
)

MIN_REPS = 3
CHILD_TIMEOUT_S = 150
#: ROADMAP 1(c): on fewer cores than workers these rows measure overhead
#: and are never to be read as a parallel speedup.
PARALLEL_KINDS = ("sweep", "sharded")


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_spec() -> dict:
    return _load_json(os.path.join(ROOT, "BENCHMARK.json"))


def load_pins() -> dict:
    return _load_json(os.path.join(BENCH_DIR, "pins.json"))


def fingerprint() -> dict:
    """The machine every number below was taken on."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "type": "fingerprint",
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {sys.version}",
        "loadavg_at_start": list(os.getloadavg()),
    }


# -- one child ---------------------------------------------------------------


def run_child(
    workload: Workload,
    config_path: str,
    kind: Optional[str] = None,
    tag: str = "",
    trace_header: Optional[dict] = None,
) -> dict:
    """Run the pipeline once in a fresh interpreter; time and weigh it.

    ``wall_s`` spans interpreter start through process exit;
    ``peak_rss_mb`` is ``ru_maxrss`` of the child (for the sweep and
    sharded pipelines, of the largest process in its tree).
    """
    out = os.path.join(OUT_DIR, workload.name + tag)
    result_path = out + ".result.json"
    if os.path.exists(result_path):
        os.remove(result_path)
    command = [
        sys.executable, "-m", "bench.pipeline",
        "--kind", kind or workload.kind, "--config", config_path, "--out", out,
    ]
    if trace_header is not None:
        command += [
            "--trace", "--run-id", f"{workload.name}-{os.getpid()}",
            "--trace-header", json.dumps(trace_header),
        ]
    # A user's interpreter caches bytecode beside the sources.  Do the
    # same whatever the caller's environment says, so set-up time means
    # the same thing wherever the benchmark runs.
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    start = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
        start_new_session=True,
    )
    # On timeout kill the whole group: the sweep and sharded pipelines
    # have worker processes of their own.
    killer = threading.Timer(
        CHILD_TIMEOUT_S, os.killpg, (process.pid, signal.SIGKILL)
    )
    killer.start()
    try:
        _pid, status, rusage = os.wait4(process.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    rep = {
        "wall_s": wall,
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,  # Linux reports KiB
        "returncode": process.returncode,
        "result": None,
    }
    if process.returncode == 0 and os.path.exists(result_path):
        rep["result"] = _load_json(result_path)
    return rep


# -- result check ------------------------------------------------------------


def _sha256_lines(lines: Sequence[bytes]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line)
    return digest.hexdigest()


def observe(result: dict, merged_order: bool = False) -> dict:
    """What a finished pipeline simulated: the values the pins hold.

    ``merged_order`` digests the message log sorted by (delivered tick,
    message id) -- the order the sharded merge produces -- so a sharded
    log and its single-process reference compare equal.
    """
    if "rows" in result:
        rows = sorted(
            ({k: v for k, v in row.items() if k != "events_executed"}
             for row in result["rows"]),
            key=lambda row: row["job_id"],
        )
        blob = json.dumps(rows, sort_keys=True).encode("utf-8")
        return {
            "flit_hops": result["flit_hops"],
            "messages": sum(row.get("messages", 0) for row in rows),
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
    with open(result["log_path"], "rb") as handle:
        lines = handle.readlines()
    if merged_order:
        def key(line: bytes) -> Tuple[int, int]:
            record = json.loads(line)
            return record["delivered"], record["id"]

        lines.sort(key=key)
    return {
        # A sharded run has no single network to count hops on; its
        # flit_hops is the single-process value (pin or reference run).
        "flit_hops": result.get("flit_hops"),
        "messages": result["messages"],
        "sha256": _sha256_lines(lines),
    }


def _conserved(drains: bool, summary: dict) -> Optional[str]:
    """Conservation check of one simulation's summary; None when it holds."""
    if "error" in summary:
        return str(summary["error"])
    if drains:
        if not summary["drained"]:
            return "did not drain"
        if summary["delivered_fraction"] != 1.0:
            return f"delivered_fraction {summary['delivered_fraction']} != 1.0"
    else:
        if summary["drained"]:
            return "drained, but the workload is saturated by design"
        if not summary["accepted_load"] < summary["offered_load"]:
            return (f"accepted_load {summary['accepted_load']} not below "
                    f"offered_load {summary['offered_load']}")
    return None


def check(workload: Workload, rep: dict, expect: Optional[dict]) -> List[str]:
    """One reason per failed operation of this repetition ([] = correct).

    An operation (one simulation) fails if the pipeline raised, if it
    misses its drain expectation, or if what the repetition simulated
    differs from ``expect`` -- the pinned values for the default seed,
    else the single-process reference (sharded) or the first repetition.
    A digest mismatch cannot be pinned on one job, so it fails them all.
    """
    result = rep["result"]
    if result is None:
        return [f"pipeline exited {rep['returncode']}"] * workload.operations
    summaries = result["rows"] if "rows" in result else [result["summary"]]
    reasons = []
    for summary in summaries:
        reason = _conserved(workload.drains, summary)
        if reason is not None:
            reasons.append(f"{summary.get('job_id', workload.name)}: {reason}")
    if expect is not None and not reasons:
        for key, seen in rep["observed"].items():
            if seen is not None and seen != expect[key]:
                reasons = [
                    f"{key} {seen} differs from expected {expect[key]}"
                ] * workload.operations
                break
    return reasons


# -- measuring ---------------------------------------------------------------


class Session:
    """One workload at one seed: its config file and what to expect."""

    def __init__(self, workload: Workload, seed: int, pins: Optional[dict]):
        self.workload = workload
        self.seed = seed
        self.config_path = write_config(workload, seed, OUT_DIR)
        self.expect = None
        self.reps: List[dict] = []
        self.reasons: List[str] = []
        if pins is not None and seed == pins["seed"]:
            self.expect = pins["workloads"].get(workload.name)

    def reference(self) -> None:
        """Sharded, unpinned seed: simulate single-process to compare."""
        rep = run_child(
            self.workload, self.config_path, kind="single", tag=".ref"
        )
        if rep["result"] is None:
            raise RuntimeError(
                f"{self.workload.name}: single-process reference run failed"
            )
        self.expect = observe(rep["result"], merged_order=True)

    def rep(self) -> dict:
        workload = self.workload
        if self.expect is None and workload.kind == "sharded":
            self.reference()
        rep = run_child(workload, self.config_path)
        if rep["result"] is not None:
            rep["observed"] = observe(
                rep["result"], merged_order=workload.kind == "sharded"
            )
        self.reasons.extend(check(workload, rep, self.expect))
        if self.expect is None and rep["result"] is not None:
            self.expect = rep["observed"]
        self.reps.append(rep)
        return rep

    @property
    def attempted(self) -> int:
        return len(self.reps) * self.workload.operations

    @property
    def failed(self) -> int:
        return len(self.reasons)

    def samples(self) -> Dict[str, List[float]]:
        """End-to-end metric name -> one value per successful repetition."""
        flit_hops = (self.expect or {}).get("flit_hops")
        samples: Dict[str, List[float]] = {
            "wall_s": [], "setup_s": [], "flit_hops_per_s": [],
            "peak_rss_mb": [],
        }
        for rep in self.reps:
            result = rep["result"]
            if result is None:
                continue
            samples["wall_s"].append(rep["wall_s"])
            samples["peak_rss_mb"].append(rep["peak_rss_mb"])
            samples["setup_s"].append(result["setup_s"])
            samples["flit_hops_per_s"].append(flit_hops / result["run_s"])
        return samples


def measure(session: Session, seconds: float, reps: Optional[int]) -> None:
    """Repeat the pipeline for ``seconds`` (at least MIN_REPS times), or
    exactly ``reps`` times.  No repetition starts that the slowest one so
    far predicts would overrun the budget."""
    deadline = time.perf_counter() + seconds
    slowest = 0.0
    while True:
        slowest = max(slowest, session.rep()["wall_s"])
        done = len(session.reps)
        if reps is not None:
            if done >= reps:
                return
        elif done >= MIN_REPS and time.perf_counter() + slowest > deadline:
            return


# -- the traced pass ---------------------------------------------------------


def engine_floor(target: int = 200_000, chains: int = 8) -> float:
    """Events/s of the bare engine: ``chains`` self-rescheduling no-op
    handlers driven through ``Simulator.call_at``/``run`` until
    ``target`` events have executed."""
    from repro.core.simulator import Simulator

    simulator = Simulator()
    count = [0]

    def handler(event):
        count[0] += 1
        if count[0] < target:
            simulator.call_at(simulator.tick + 1, handler)

    for i in range(chains):
        simulator.call_at(i + 1, handler)
    start = time.perf_counter()
    simulator.run()
    return count[0] / (time.perf_counter() - start)


def layer_metrics(session: Session, header: dict) -> Dict[str, float]:
    """One untraced repetition, one traced child, then every per-layer row.

    Rows of layers a workload does not execute are 0: that is the
    no-change prediction for a change to that layer.
    """
    workload = session.workload
    untraced = session.rep()
    traced = run_child(
        workload, session.config_path,
        trace_header=dict(header, workload=workload.name, seed=session.seed),
    )
    if traced["result"] is None or untraced["result"] is None:
        raise RuntimeError(f"{workload.name}: traced pass failed")
    result = traced["result"]
    spans, fold, counts = result["spans"], result["fold"], result["counts"]
    partition = result.get("partition", {"windows": 0, "records_exchanged": 0})

    def span(name: str) -> float:
        return spans.get(name, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    rows = {f"{layer}.self_s": fold[layer] for layer in LAYERS}
    rows.update({
        "import_s": span("import"),
        # Pipeline time no stage span covers: glue between the calls.
        "pipeline.glue_s": result["self"]["pipeline"],
        "config.load_s": span("config.load"),
        "lint.config_s": span("lint.config"),
        "sim.build_s": span("sim.build"),
        "sim.run_s": span("sim.run"),
        "sim.routers": counts["sim.routers"],
        "sim.flit_channels": counts["sim.flit_channels"],
        "sim.terminals": counts["sim.terminals"],
        "profile.run_s": span("profile.run"),
        "core.events": counts["core.events"],
        "core.events_per_flit_hop": ratio(
            counts["core.events"], counts["flit_hops"]),
        "core.noop_events_per_s": engine_floor(),
        "net.flit_deliveries": counts["net.flit_deliveries"],
        "net.credit_deliveries": counts["net.credit_deliveries"],
        "router.steps": counts["router.steps"],
        "router.flits_per_step": ratio(
            counts["router.flits_forwarded"], counts["router.steps"]),
        "routing.route_calls": counts["routing.route_calls"],
        "workload.messages": counts["workload.messages"],
        "stats.summary_s": span("stats.summary"),
        "stats.log_write_s": span("stats.log_write"),
        "stats.log_bytes": result.get("log_bytes", 0),
        "tools.ssparse_s": span("tools.ssparse"),
        "tools.sweep_run_s": span("tools.sweep_run"),
        # Sweep.run wall minus the serial sum of job times / workers.
        "tools.sweep_overhead_s": (
            span("tools.sweep_run") - span("job") / SWEEP_WORKERS),
        "tools.jobs": counts.get("tools.jobs", 0),
        "partition.plan_s": span("partition.plan"),
        "partition.run_s": span("partition.run"),
        "partition.windows": partition["windows"],
        "partition.records_exchanged": partition["records_exchanged"],
        # In-process sharded / single-process run; spawn / in-process.
        "partition.inproc_overhead_x": ratio(
            span("ref.inproc"), span("sim.run")),
        "partition.spawn_overhead_x": ratio(
            span("partition.run"), span("ref.inproc")),
        "untraced.wall_s": untraced["wall_s"],
        "trace_overhead_s": traced["wall_s"] - untraced["wall_s"],
    })
    return rows


# -- reporting ---------------------------------------------------------------


def median_row(values: Sequence[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values), "max": max(values), "n": len(values),
    }


def print_fingerprint(header: dict) -> None:
    print(f"# machine: {header['cpu_model']}, nproc {header['nproc']}, "
          f"load {header['loadavg_at_start'][0]:.2f}")
    print(f"# python: {header['python'].splitlines()[0]}")
    print("# model unvalidated against hardware or the C++ SuperSim: "
          "no error figure; correctness = simulated statistics "
          "bit-identical to pinned values")


def tag_of(workload: Workload, header: dict) -> str:
    if workload.kind in PARALLEL_KINDS and header["nproc"] < 2:
        return " [overhead_only]"
    return ""


def report(spec: dict, session: Session, values: Dict[str, dict],
           section: str, header: dict) -> dict:
    """Print one workload's rows; return the contract's result object."""
    workload = session.workload
    print(f"== {workload.name} (seed {session.seed})"
          f"{tag_of(workload, header)}")
    metrics = {}
    for declared in spec[section]:
        name, unit = declared["name"], declared["unit"]
        row = values[name]
        metrics[name] = {"value": row["median"], "unit": unit}
        spread = ""
        if row["n"] > 1:
            spread = (f"  (min {row['min']:.6g}, max {row['max']:.6g}, "
                      f"n={row['n']})")
        print(f"{name:34s} {row['median']:.6g} {unit}{spread}")
    undeclared = set(values) - set(metrics)
    if undeclared:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {undeclared}")
    print(f"{'failed / attempted':34s} {session.failed} / {session.attempted}")
    for reason in sorted(set(session.reasons)):
        print(f"  FAILED: {reason}")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return result


def run_workload(spec, workload, seed, pins, seconds, reps, trace, header):
    session = Session(workload, seed, pins)
    if trace:
        rows = layer_metrics(session, header)
        values = {name: median_row([v]) for name, v in rows.items()}
        return report(spec, session, values, "per_layer", header)
    measure(session, seconds, reps)
    samples = session.samples()
    if not samples["wall_s"]:
        raise RuntimeError(
            f"{workload.name}: no repetition succeeded: {session.reasons[:1]}"
        )
    values = {name: median_row(v) for name, v in samples.items()}
    return report(spec, session, values, "end_to_end", header)


def run_aa(spec, workloads, seed, pins, reps, header) -> bool:
    """Two sets of repetitions of this checkout, interleaved round-robin;
    True when every median pair agrees within the metric's bound."""
    sides = [
        {w.name: Session(w, seed, pins) for w in workloads} for _ in "AB"
    ]
    for _ in range(reps):
        for side in sides:
            for workload in workloads:
                side[workload.name].rep()
    agree = True
    for workload in workloads:
        a, b = (side[workload.name] for side in sides)
        print(f"== {workload.name} (A/A, {reps} reps a side)"
              f"{tag_of(workload, header)}")
        for declared in spec["end_to_end"]:
            name, bound = declared["name"], declared["bound"]
            med_a = statistics.median(a.samples()[name])
            med_b = statistics.median(b.samples()[name])
            diff = abs(med_b - med_a) / med_a
            verdict = "ok" if diff <= bound else "EXCEEDS"
            agree &= diff <= bound
            print(f"{name:20s} A {med_a:.6g}  B {med_b:.6g} "
                  f"{declared['unit']}  diff {diff:.2%} (bound "
                  f"{bound:.0%})  {verdict}")
        failed, attempted = a.failed + b.failed, a.attempted + b.attempted
        print(f"{'failed / attempted':20s} {failed} / {attempted}")
        agree &= failed == 0
    return agree


def write_pins() -> None:
    """Pin what each workload simulates at the default seed."""
    pinned = {}
    for workload in WORKLOADS:
        session = Session(workload, DEFAULT_SEED, None)
        session.rep()
        if session.failed:
            raise RuntimeError(f"{workload.name}: {session.reasons[0]}")
        pinned[workload.name] = session.expect
    with open(os.path.join(BENCH_DIR, "pins.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, "workloads": pinned}, handle,
                  indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="one workload by name (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--reps", type=int, default=None,
                        help="exact repetitions per workload, "
                        "instead of --seconds")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="print the per-layer rows from one traced run")
    parser.add_argument("--aa", action="store_true",
                        help="two interleaved sets of --reps (default 5); "
                        "exit 1 if any pair of medians differs by more "
                        "than its bound")
    parser.add_argument("--write-pins", action="store_true",
                        help="rewrite bench/pins.json from this checkout")
    args = parser.parse_args(argv)

    if args.write_pins:
        write_pins()
        return 0
    workloads = [by_name(args.workload)] if args.workload else WORKLOADS
    pins = load_pins()
    header = fingerprint()
    print_fingerprint(header)
    if args.aa:
        return 0 if run_aa(
            spec, workloads, args.seed, pins, args.reps or 5, header
        ) else 1
    correct = True
    for workload in workloads:
        result = run_workload(
            spec, workload, args.seed, pins, args.seconds, args.reps,
            args.trace, header,
        )
        correct &= result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
