"""ParallelTaskManager specifics: process fan-out and the inline fallback.

Scheduling semantics shared with ``TaskManager`` (ordering, failures,
conditions, timeouts) are covered once, over both executors, in
``test_taskrun.py``.  Worker payloads must be module-level functions --
spawned processes pickle the ``(func, args, kwargs)`` triple.  Anything
unpicklable (the lambdas the thread executor happily runs) must fall
back to inline execution rather than fail.
"""

import os

from repro.tools.taskrun import FunctionTask, ParallelTaskManager, TaskState


def _square(x):
    return x * x


def _pid():
    return os.getpid()


def test_parallel_runs_in_worker_processes():
    manager = ParallelTaskManager(num_workers=2)
    tasks = [manager.add_task(FunctionTask(f"p{i}", _pid)) for i in range(2)]
    manager.run()
    for task in tasks:
        assert task.state == TaskState.SUCCEEDED
        assert task.result != os.getpid()


def test_unpicklable_payload_falls_back_inline():
    captured = []
    manager = ParallelTaskManager(num_workers=2)
    # A closure over a local list does not pickle; it must run inline
    # (in this process) instead of failing.
    manager.add_task(FunctionTask("closure", lambda: captured.append(1) or 7))
    picklable = manager.add_task(FunctionTask("plain", _square, (4,)))
    states = manager.run()
    assert states["closure"] == TaskState.SUCCEEDED
    assert captured == [1]
    assert picklable.result == 16
