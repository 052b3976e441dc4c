"""sssweep: autonomous simulation sweep generation (paper §V, [26]).

SSSweep turns a few lines of variable declarations into a full cross
product of simulations plus their parsing/analysis tasks, all executed
through taskrun.  Mirroring the paper's Listing 2, each sweep variable
carries a function mapping a value to SuperSim command-line override
strings::

    sweep = Sweep(base_config, name="channel_latency_study")
    sweep.add_variable(
        "ChannelLatency", "CL", [1, 2, 4, 8, 16, 32, 64],
        lambda latency: f"network.channel_latency=uint={latency}")
    sweep.run()
    rows = sweep.to_rows()

Every job in the cross product gets a stable id built from the short
names (``CL4_MS2``), a fully resolved Settings object, and a collected
result (by default ``SimulationResults.summary()``; pass ``collect=``
for a custom extractor).  ``write_csv`` and ``write_html_index`` export
the sweep for external tooling -- the latter is the stand-in for
SSSweep's generated web viewer.
"""

from __future__ import annotations

import html
import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config.settings import Settings
from repro.sim import Simulation, SimulationResults
from repro.tools.taskrun import (
    FunctionTask,
    ParallelTaskManager,
    TaskManager,
    TaskState,
)

OverrideFn = Callable[[Any], Any]  # value -> str | List[str]
CollectFn = Callable[[SimulationResults], Any]


class SweepVariable:
    """One swept dimension: a value list and its override generator."""

    def __init__(self, name: str, short_name: str, values: Sequence[Any],
                 override_fn: OverrideFn):
        if not values:
            raise ValueError(f"sweep variable {name!r} has no values")
        if not short_name:
            raise ValueError(f"sweep variable {name!r} needs a short name")
        self.name = name
        self.short_name = short_name
        self.values = list(values)
        self.override_fn = override_fn

    def overrides_for(self, value: Any) -> List[str]:
        result = self.override_fn(value)
        if isinstance(result, str):
            return [result]
        return list(result)


class SweepJob:
    """One point of the cross product."""

    def __init__(self, job_id: str, values: Dict[str, Any], overrides: List[str]):
        self.job_id = job_id
        self.values = values
        self.overrides = overrides
        self.result: Any = None
        self.error: Optional[str] = None

    def __repr__(self):
        return f"SweepJob({self.job_id})"

    def describe(self) -> str:
        """The sweep point in human terms: id plus variable values."""
        values = ", ".join(f"{k}={v}" for k, v in self.values.items())
        return f"sweep point {self.job_id!r} ({values})"

    def format_error(self, error: Any) -> str:
        """Attach the originating sweep point to a worker-side failure.

        Parallel workers only ship back the exception; without this the
        user sees a bare executor traceback with no clue which point of
        the cross product produced it.
        """
        kind = type(error).__name__ if isinstance(error, BaseException) else ""
        prefix = f"{kind}: " if kind else ""
        overrides = "; ".join(self.overrides)
        return (
            f"{self.describe()} failed: {prefix}{error} "
            f"[overrides: {overrides}]"
        )


def default_collect(results: SimulationResults) -> Dict[str, Any]:
    return results.summary()


def _execute_sweep_job(
    base_config: dict,
    overrides: List[str],
    max_time: Optional[int],
    collect: CollectFn,
) -> Any:
    """Build and run one sweep job from plain data.

    Module-level (and fed only picklable arguments) so it ships to a
    spawned worker process: the ``Simulation`` is constructed *inside*
    the worker from the resolved config dict, and only the collected
    result travels back.
    """
    settings = Settings.from_dict(base_config, overrides=overrides)
    simulation = Simulation(settings)
    results = simulation.run(max_time=max_time)
    return collect(results)


class Sweep:
    """Cross-product simulation sweep over a base configuration."""

    def __init__(
        self,
        base_config: dict,
        name: str = "sweep",
        collect: CollectFn = default_collect,
        max_time: Optional[int] = None,
        num_workers: int = 1,
    ):
        self.base_config = base_config
        self.name = name
        self.collect = collect
        self.max_time = max_time
        self.num_workers = num_workers
        self.variables: List[SweepVariable] = []
        self.jobs: List[SweepJob] = []

    def add_variable(
        self,
        name: str,
        short_name: str,
        values: Sequence[Any],
        override_fn: OverrideFn,
    ) -> SweepVariable:
        if any(v.short_name == short_name for v in self.variables):
            raise ValueError(f"duplicate sweep short name {short_name!r}")
        variable = SweepVariable(name, short_name, values, override_fn)
        self.variables.append(variable)
        return variable

    # -- job generation -----------------------------------------------------------

    def generate_jobs(self) -> List[SweepJob]:
        """Build the cross product (idempotent)."""
        if not self.variables:
            raise ValueError("sweep has no variables")
        combos: List[List[Tuple[SweepVariable, Any]]] = [[]]
        for variable in self.variables:
            combos = [
                combo + [(variable, value)]
                for combo in combos
                for value in variable.values
            ]
        self.jobs = []
        for combo in combos:
            job_id = "_".join(
                f"{variable.short_name}{value}" for variable, value in combo
            )
            values = {variable.name: value for variable, value in combo}
            overrides: List[str] = []
            for variable, value in combo:
                overrides.extend(variable.overrides_for(value))
            self.jobs.append(SweepJob(job_id, values, overrides))
        return self.jobs

    @property
    def num_jobs(self) -> int:
        count = 1
        for variable in self.variables:
            count *= len(variable.values)
        return count

    # -- execution ------------------------------------------------------------------

    def settings_for(self, job: SweepJob) -> Settings:
        return Settings.from_dict(self.base_config, overrides=job.overrides)

    def run(
        self,
        observer: Optional[Callable[[SweepJob], None]] = None,
        workers: Optional[int] = None,
        job_timeout: Optional[float] = None,
    ) -> None:
        """Execute every job; ``workers > 1`` fans out across processes.

        ``workers`` defaults to the sweep's ``num_workers`` (itself 1 by
        default).  Every job is one :func:`_execute_sweep_job` task, run
        in this process (:class:`~repro.tools.taskrun.TaskManager`) or,
        with more workers, in spawned worker processes
        (:class:`~repro.tools.taskrun.ParallelTaskManager`) that rebuild
        the ``Simulation`` from the resolved config dict and return only
        the collected result; a ``collect`` that does not pickle makes
        its jobs run inline.  Results and ``observer`` calls land in
        cross-product order, each once every earlier job has ended, and
        ``to_rows()`` is identical for any worker count (simulations are
        independently seeded from their settings).

        ``job_timeout`` (seconds) fails any job that runs too long
        instead of hanging the sweep (only a worker process is actually
        stopped; an in-process job is abandoned).
        """
        if not self.jobs:
            self.generate_jobs()
        if workers is None:
            workers = self.num_workers
        workers = max(workers, 1)
        pairs: List[Tuple[FunctionTask, SweepJob]] = []
        reported: List[SweepJob] = []

        def report_finished(_task) -> None:
            # Called at every task end; releases the finished prefix.
            while len(reported) < len(pairs) and pairs[len(reported)][0].done:
                task, job = pairs[len(reported)]
                if task.state == TaskState.SUCCEEDED:
                    job.result = task.result
                else:
                    job.error = job.format_error(
                        task.error or f"job ended in state {task.state.value}"
                    )
                reported.append(job)
                if observer is not None:
                    observer(job)

        manager_class = ParallelTaskManager if workers > 1 else TaskManager
        manager = manager_class(
            resources={"sim": workers}, num_workers=workers,
            observer=report_finished,
        )
        for job in self.jobs:
            task = FunctionTask(
                f"{self.name}:{job.job_id}",
                _execute_sweep_job,
                (self.base_config, job.overrides, self.max_time, self.collect),
                resources={"sim": 1},
                timeout=job_timeout,
            )
            pairs.append((manager.add_task(task), job))
        manager.run()

    # -- sanitized smoke run ------------------------------------------------------------

    def sanitized_smoke(
        self, max_time: int = 1000, sanitize: str = "all"
    ) -> Dict[str, Any]:
        """Run the base point briefly under runtime sanitizers.

        Called before fan-out (``sssweep --smoke``): a model that leaks
        credits or corrupts the event stream should fail here, in one
        short sanitized run with an invariant-violation message, rather
        than as N workers' worth of confusing downstream symptoms (or,
        worse, N quietly wrong result rows).  Raises
        :class:`repro.sanitize.SanitizerError` on the first violation;
        returns the per-sanitizer report dict on a clean run.
        """
        from repro.sanitize import attach_sanitizers

        settings = Settings.from_dict(self.base_config)
        simulation = Simulation(settings)
        with attach_sanitizers(simulation, sanitize) as suite:
            simulation.run(max_time=max_time)
            suite.finish()
            return suite.report()

    # -- results ------------------------------------------------------------------------

    def to_rows(self) -> List[Dict[str, Any]]:
        """One flat dict per job: variables + collected result fields."""
        rows = []
        for job in self.jobs:
            row: Dict[str, Any] = {"job_id": job.job_id}
            row.update(job.values)
            if isinstance(job.result, dict):
                row.update(job.result)
            else:
                row["result"] = job.result
            if job.error:
                row["error"] = job.error
            rows.append(row)
        return rows

    def write_csv(self, path: str) -> int:
        rows = self.to_rows()
        if not rows:
            raise ValueError("no jobs to export; run() first")
        columns: List[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(columns) + "\n")
            for row in rows:
                cells = []
                for column in columns:
                    value = row.get(column, "")
                    if isinstance(value, (dict, list)):
                        value = json.dumps(value).replace(",", ";")
                    cells.append(str(value))
                handle.write(",".join(cells) + "\n")
        return len(rows)

    def write_html_index(self, path: str) -> None:
        """A static HTML table of all jobs -- the web-viewer stand-in."""
        rows = self.to_rows()
        columns: List[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        parts = [
            "<!DOCTYPE html><html><head><meta charset='utf-8'>",
            f"<title>{html.escape(self.name)}</title>",
            "<style>table{border-collapse:collapse}td,th{border:1px solid #999;"
            "padding:4px 8px;font:13px monospace}</style></head><body>",
            f"<h1>{html.escape(self.name)}</h1>",
            f"<p>{len(rows)} simulations across "
            f"{len(self.variables)} variables</p>",
            "<table><tr>",
        ]
        parts.extend(f"<th>{html.escape(str(c))}</th>" for c in columns)
        parts.append("</tr>")
        for row in rows:
            parts.append("<tr>")
            for column in columns:
                value = row.get(column, "")
                if isinstance(value, (dict, list)):
                    value = json.dumps(value)
                parts.append(f"<td>{html.escape(str(value))}</td>")
            parts.append("</tr>")
        parts.append("</table></body></html>")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(parts))
