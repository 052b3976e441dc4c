"""taskrun: dependency-ordered task execution (paper §V, [25]).

TaskRun runs tasks with dependencies, conditional execution, resource
management, "and much more".  The experiment flow -- simulate, parse,
analyze, plot -- is a DAG where each step depends on earlier steps and
competes for machine resources; a TaskRun script declares the tasks and
the manager executes them in a correct order, in parallel up to the
declared resource capacities.

Core concepts:

* :class:`Task` -- a unit of work: a Python function (:class:`FunctionTask`)
  or a shell command (:class:`ProcessTask`).  Tasks declare resource
  demands (e.g. ``{"cpus": 1, "mem": 2}``) and dependencies.
* conditions -- a task may carry a condition callable; when it returns
  False at schedule time the task is *skipped* (its dependents still
  run), which implements incremental flows ("output file already
  exists").
* :class:`ResourceManager` -- named capacities; a task runs only when
  all its demands fit, and returns them on completion.
* :class:`TaskManager` -- topological scheduling over in-process
  threads; :class:`ParallelTaskManager` -- the same scheduler over a
  pool of spawned worker processes.

Failure semantics: a failed task (its function, its command, its
condition, or its ``timeout``) marks all transitive dependents as
cancelled; independent subgraphs keep running.
"""

from __future__ import annotations

import enum
import math
import os
import pickle
import subprocess
import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)


class TaskState(enum.Enum):
    PENDING = "pending"
    READY = "ready"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    SKIPPED = "skipped"
    FAILED = "failed"
    CANCELLED = "cancelled"

_SATISFIED = (TaskState.SUCCEEDED, TaskState.SKIPPED)
_BLOCKED = (TaskState.FAILED, TaskState.CANCELLED)
_TERMINAL = _SATISFIED + _BLOCKED


class TaskError(RuntimeError):
    """Raised for task graph construction errors."""


class Task:
    """Abstract unit of work in a task graph."""

    def __init__(
        self,
        name: str,
        resources: Optional[Dict[str, int]] = None,
        condition: Optional[Callable[[], bool]] = None,
        timeout: Optional[float] = None,
    ):
        if not name:
            raise TaskError("task name must be non-empty")
        self.name = name
        self.resources = dict(resources or {})
        self.condition = condition
        self.timeout = timeout
        self.dependencies: List["Task"] = []
        self.dependents: List["Task"] = []
        self.state = TaskState.PENDING
        self.result: Any = None
        self.error: Optional[BaseException] = None

    def depends_on(self, *tasks: "Task") -> "Task":
        """Declare that this task runs after ``tasks``; returns self."""
        for task in tasks:
            if task is self:
                raise TaskError(f"task {self.name!r} cannot depend on itself")
            self.dependencies.append(task)
            task.dependents.append(self)
        return self

    # -- execution ---------------------------------------------------------------

    def execute(self) -> Any:
        raise NotImplementedError

    def payload(self) -> Optional[Tuple[Callable[..., Any], tuple, dict]]:
        """A picklable ``(func, args, kwargs)`` triple for out-of-process
        execution, or ``None`` when the task can only run in-process.

        :class:`ParallelTaskManager` ships the payload to a worker
        process and feeds the return value to :meth:`apply_result` on
        the parent-side task object.  The default is ``None`` (run
        inline).
        """
        return None

    def apply_result(self, result: Any) -> None:
        """Install the worker-returned value onto this (parent-side) task."""
        self.result = result

    @property
    def done(self) -> bool:
        return self.state in _TERMINAL

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r}, {self.state.value})"


class FunctionTask(Task):
    """Run a Python callable; its return value becomes ``task.result``."""

    def __init__(
        self,
        name: str,
        func: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        resources: Optional[Dict[str, int]] = None,
        condition: Optional[Callable[[], bool]] = None,
        timeout: Optional[float] = None,
    ):
        super().__init__(name, resources, condition, timeout)
        self.func = func
        self.args = tuple(args)
        self.kwargs = dict(kwargs or {})

    def execute(self) -> Any:
        return self.func(*self.args, **self.kwargs)

    def payload(self) -> Optional[Tuple[Callable[..., Any], tuple, dict]]:
        return (self.func, self.args, self.kwargs)


class ProcessTask(Task):
    """Run a shell command; nonzero exit status is a failure."""

    def __init__(
        self,
        name: str,
        command: Sequence[str],
        resources: Optional[Dict[str, int]] = None,
        condition: Optional[Callable[[], bool]] = None,
        timeout: Optional[float] = None,
    ):
        super().__init__(name, resources, condition, timeout)
        self.command = list(command)
        self.stdout: Optional[str] = None
        self.stderr: Optional[str] = None

    def execute(self) -> int:
        try:
            returncode, self.stdout, self.stderr = _run_command(
                self.command, self.timeout
            )
        except CommandError as exc:
            self.stdout, self.stderr = exc.stdout, exc.stderr
            raise
        return returncode

    def payload(self) -> Optional[Tuple[Callable[..., Any], tuple, dict]]:
        return (_run_command, (self.command, self.timeout), {})

    def apply_result(self, result: Any) -> None:
        self.result, self.stdout, self.stderr = result


class CommandError(RuntimeError):
    """A command exited nonzero; carries the captured output.

    The positional-args construction keeps the exception picklable, so
    it survives the trip back from a worker process intact.
    """

    def __init__(self, command, returncode, stdout, stderr):
        super().__init__(command, returncode, stdout, stderr)
        self.command = command
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr

    def __str__(self):
        tail = self.stderr[-500:] if self.stderr else ""
        return f"command {self.command!r} exited {self.returncode}: {tail}"


def _run_command(
    command: Sequence[str], timeout: Optional[float]
) -> Tuple[int, str, str]:
    """Run ``command``; module-level so it pickles for worker processes."""
    proc = subprocess.run(
        list(command),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise CommandError(command, proc.returncode, proc.stdout, proc.stderr)
    return proc.returncode, proc.stdout, proc.stderr


class ResourceManager:
    """Named resource capacities shared by concurrently running tasks."""

    def __init__(self, capacities: Optional[Dict[str, int]] = None):
        self._capacity = dict(capacities or {})
        self._available = dict(self._capacity)
        self._lock = threading.Lock()

    def capacity(self, name: str) -> int:
        return self._capacity.get(name, 0)

    def available(self, name: str) -> int:
        with self._lock:
            return self._available.get(name, 0)

    def validate(self, task: Task) -> None:
        for name, amount in task.resources.items():
            if amount < 0:
                raise TaskError(f"{task.name}: negative demand for {name!r}")
            if amount > self._capacity.get(name, 0):
                raise TaskError(
                    f"{task.name}: demands {amount} of {name!r} but the "
                    f"capacity is {self._capacity.get(name, 0)} -- it could "
                    f"never run"
                )

    def try_acquire(self, task: Task) -> bool:
        with self._lock:
            for name, amount in task.resources.items():
                if self._available.get(name, 0) < amount:
                    return False
            for name, amount in task.resources.items():
                self._available[name] -= amount
            return True

    def release(self, task: Task) -> None:
        with self._lock:
            for name, amount in task.resources.items():
                self._available[name] += amount
                if self._available[name] > self._capacity[name]:
                    raise TaskError(
                        f"resource {name!r} over-released past capacity"
                    )


class TaskTimeout(RuntimeError):
    """A task exceeded its ``timeout``."""


class _ThreadExecutor:
    """Runs each task's ``execute()`` on its own daemon thread.

    For process tasks and IO-heavy function tasks; CPU-bound Python
    still serializes on the GIL.  Daemon threads, because a timed-out
    task cannot be interrupted and must not keep the interpreter alive.
    """

    def submit(self, task: Task):
        import concurrent.futures as cf

        future = cf.Future()
        # Running from the start: cancel() then always reports "too
        # late" and a timed-out task is abandoned, never half-cancelled.
        future.set_running_or_notify_cancel()

        def work() -> None:
            try:
                future.set_result(task.execute())
            except BaseException as exc:  # noqa: BLE001 - handed to the scheduler
                future.set_exception(exc)

        threading.Thread(target=work, daemon=True).start()
        return future

    def store(self, task: Task, value: Any) -> None:
        task.result = value

    def shutdown(self, abandoned: bool) -> None:
        pass


class _ProcessExecutor:
    """Ships each task's :meth:`Task.payload` to a spawned worker process.

    A task whose payload is ``None`` or does not pickle (e.g. a closure
    over live objects) is declined -- ``submit`` returns ``None`` and
    the scheduler runs it inline in the parent process.  Workers are
    started with the ``spawn`` method, unlike the sharded runtime's
    shard workers, which are forked.  A shard worker is forked while
    its coordinator runs no other thread, and it uses nothing it
    inherited but the imported modules and the config and manifest it
    builds from.  This pool is
    long-lived, runs its own management thread, and may be created in
    a process that holds live simulations (a notebook, a test session,
    ``Sweep.run`` after other runs), whose state its workers would then
    share: a rich source of latent bugs.  Spawn also behaves
    identically across platforms.
    """

    def __init__(self, num_workers: int):
        import concurrent.futures as cf
        import multiprocessing

        self._pool = cf.ProcessPoolExecutor(
            max_workers=num_workers,
            mp_context=multiprocessing.get_context("spawn"),
        )

    def submit(self, task: Task):
        payload = task.payload()
        if payload is None:
            return None
        try:
            pickle.dumps(payload)
        except Exception:  # noqa: BLE001 - any pickling failure means inline
            return None
        func, args, kwargs = payload
        return self._pool.submit(func, *args, **kwargs)

    def store(self, task: Task, value: Any) -> None:
        task.apply_result(value)

    def shutdown(self, abandoned: bool) -> None:
        if abandoned:
            # Workers still chewing on timed-out payloads would block a
            # clean shutdown indefinitely; everything we still care
            # about has completed, so put them down first -- the pool
            # notices the dead workers, marks itself broken, and
            # shutdown returns promptly.
            for proc in list((getattr(self._pool, "_processes", None) or {}).values()):
                proc.terminate()
        self._pool.shutdown(wait=True, cancel_futures=True)


class TaskManager:
    """Builds and executes a task DAG on in-process worker threads.

    One scheduler loop (:meth:`run`) serves this class and
    :class:`ParallelTaskManager`; they differ only in the executor that
    carries a ready task's work:

    * Tasks start in insertion order as their dependencies succeed (or
      are skipped), their condition holds, one of ``num_workers`` is
      free and their resource demands fit.
    * A false condition SKIPs the task; a failing condition, work or
      ``timeout`` FAILs it (``task.error`` set) and CANCELs its
      transitive dependents.
    * An overdue task fails with :class:`TaskTimeout` and its worker is
      abandoned (running work cannot be interrupted portably; the late
      result is discarded).
    * The returned ``{name: state}`` dict and all task results are in
      task-insertion order regardless of completion order.
    """

    def __init__(
        self,
        resources: Optional[Dict[str, int]] = None,
        num_workers: int = 1,
        observer: Optional[Callable[[Task], None]] = None,
    ):
        if num_workers < 1:
            raise TaskError("num_workers must be >= 1")
        self.resource_manager = ResourceManager(resources)
        self.num_workers = num_workers
        self.tasks: List[Task] = []
        self._observer = observer

    # -- graph construction -------------------------------------------------------

    def add_task(self, task: Task) -> Task:
        self.resource_manager.validate(task)
        self.tasks.append(task)
        return task

    def _check_acyclic(self) -> List[Task]:
        """Kahn's algorithm; returns a topological order or raises."""
        in_degree = {id(t): len(t.dependencies) for t in self.tasks}
        known = {id(t) for t in self.tasks}
        for task in self.tasks:
            for dep in task.dependencies:
                if id(dep) not in known:
                    raise TaskError(
                        f"{task.name!r} depends on {dep.name!r}, which was "
                        f"never added to this manager"
                    )
        queue = [t for t in self.tasks if in_degree[id(t)] == 0]
        order: List[Task] = []
        while queue:
            task = queue.pop()
            order.append(task)
            for dependent in task.dependents:
                if id(dependent) in in_degree:
                    in_degree[id(dependent)] -= 1
                    if in_degree[id(dependent)] == 0:
                        queue.append(dependent)
        if len(order) != len(self.tasks):
            cyclic = [t.name for t in self.tasks if not t.done and t not in order]
            raise TaskError(f"task graph has a cycle involving {cyclic}")
        return order

    # -- execution -----------------------------------------------------------------

    def _executor(self):
        return _ThreadExecutor()

    def run(self) -> Dict[str, TaskState]:
        """Execute the graph; returns {task name: final state}."""
        # Imported where used (here and in the executors): importing
        # repro.tools for ssparse alone should not pay ~1.6 MB for them.
        import concurrent.futures as cf

        self._check_acyclic()
        resources = self.resource_manager
        # future -> (task, monotonic deadline; inf without a timeout)
        running: Dict[Any, Tuple[Task, float]] = {}
        abandoned: set = set()  # timed-out futures whose results we drop

        def settle(task, state, error=None, held=True) -> None:
            """Record a final state; ``held``: the task acquired resources."""
            task.state, task.error = state, error
            if held:
                resources.release(task)
            if self._observer is not None:
                self._observer(task)

        executor = self._executor()
        try:
            while True:
                # Launch every task that became ready and cancel every task
                # a failure cut off, until a scan changes nothing (a skip, a
                # cancellation or an inline run can unblock others).
                progressed = True
                while progressed:
                    progressed = False
                    for task in self.tasks:
                        if task.state is not TaskState.PENDING:
                            continue
                        if any(d.state in _BLOCKED for d in task.dependencies):
                            settle(task, TaskState.CANCELLED, held=False)
                            progressed = True
                            continue
                        if not all(d.state in _SATISFIED for d in task.dependencies):
                            continue
                        if task.condition is not None:
                            try:
                                wanted = task.condition()
                            except Exception as exc:  # noqa: BLE001 - the task fails
                                settle(task, TaskState.FAILED, exc, held=False)
                                progressed = True
                                continue
                            if not wanted:
                                settle(task, TaskState.SKIPPED, held=False)
                                progressed = True
                                continue
                        if len(running) >= self.num_workers:
                            continue
                        if not resources.try_acquire(task):
                            continue
                        task.state = TaskState.RUNNING
                        progressed = True
                        future = executor.submit(task)
                        if future is None:
                            # Declined by the executor: run inline.
                            try:
                                task.result = task.execute()
                            except Exception as exc:  # noqa: BLE001 - the task fails
                                settle(task, TaskState.FAILED, exc)
                            else:
                                settle(task, TaskState.SUCCEEDED)
                            continue
                        running[future] = (task, time.monotonic() + (
                            math.inf if task.timeout is None else task.timeout
                        ))
                if not running:
                    if all(t.done for t in self.tasks):
                        break
                    # Nothing running, nothing launchable: deadlock
                    # (shouldn't happen with validated resources).
                    stuck = [t.name for t in self.tasks if not t.done]
                    raise TaskError(f"no runnable tasks among {stuck}")
                # Wait for a completion (or the nearest deadline).
                nearest = min(deadline for _, deadline in running.values())
                done, _ = cf.wait(
                    set(running) | abandoned,
                    timeout=None if nearest == math.inf
                    else max(0.0, nearest - time.monotonic()),
                    return_when=cf.FIRST_COMPLETED,
                )
                for future in done:
                    if future in abandoned:
                        abandoned.discard(future)
                        continue
                    task, _ = running.pop(future)
                    try:
                        executor.store(task, future.result())
                    except BaseException as exc:  # noqa: BLE001 - the task's own
                        settle(task, TaskState.FAILED, exc)
                    else:
                        settle(task, TaskState.SUCCEEDED)
                now = time.monotonic()
                for future, (task, deadline) in list(running.items()):
                    if now > deadline:
                        del running[future]
                        if not future.cancel():
                            abandoned.add(future)
                        settle(task, TaskState.FAILED, TaskTimeout(
                            f"task {task.name!r} exceeded {task.timeout}s"
                        ))
        finally:
            executor.shutdown(bool(abandoned))
        return {task.name: task.state for task in self.tasks}

    # -- reporting ---------------------------------------------------------------------

    def failures(self) -> List[Task]:
        return [t for t in self.tasks if t.state == TaskState.FAILED]

    def succeeded(self) -> bool:
        return all(t.state in _SATISFIED for t in self.tasks)


class ParallelTaskManager(TaskManager):
    """:class:`TaskManager` over a pool of worker *processes*.

    Each ready task's :meth:`Task.payload` runs in a spawned worker and
    the returned value is applied to the parent-side task; tasks without
    a picklable payload run inline in the parent.  This is the engine
    behind ``Sweep.run(workers=N)``.  Scheduling semantics are
    :meth:`TaskManager.run`'s; once the graph is done, workers still
    busy with timed-out payloads are terminated.
    """

    def __init__(
        self,
        resources: Optional[Dict[str, int]] = None,
        num_workers: Optional[int] = None,
        observer: Optional[Callable[[Task], None]] = None,
    ):
        if num_workers is None:
            num_workers = os.cpu_count() or 1
        super().__init__(resources, num_workers, observer)

    def _executor(self):
        return _ProcessExecutor(self.num_workers)
