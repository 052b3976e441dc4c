"""taskrun: dependency ordering, resources, conditions, failures.

The scheduler is one loop behind two executors (``TaskManager``:
in-process threads, ``ParallelTaskManager``: spawned processes); the
``manager_class`` tests run against both.  Their payloads are
module-level functions so they really cross the process boundary --
lambdas only pickle nowhere and would run inline.
"""

import sys
import threading
import time

import pytest

from repro.tools.taskrun import (
    FunctionTask,
    ParallelTaskManager,
    ProcessTask,
    ResourceManager,
    TaskError,
    TaskManager,
    TaskState,
    TaskTimeout,
)


def _square(x):
    return x * x


def _boom():
    raise ValueError("boom")


def _sleep_forever():
    time.sleep(300)
    return "too late"


@pytest.fixture(params=[TaskManager, ParallelTaskManager],
                ids=["threads", "processes"])
def manager_class(request):
    return request.param


# -- semantics shared by both executors ---------------------------------------


def test_results_in_insertion_order(manager_class):
    manager = manager_class(num_workers=2)
    tasks = [
        manager.add_task(FunctionTask(f"sq{i}", _square, (i,)))
        for i in range(5)
    ]
    states = manager.run()
    assert all(s == TaskState.SUCCEEDED for s in states.values())
    assert [t.result for t in tasks] == [0, 1, 4, 9, 16]
    # Result ordering follows task insertion order, not completion order.
    assert list(states) == [f"sq{i}" for i in range(5)]


def test_dependencies_honored(manager_class):
    manager = manager_class(num_workers=2)
    a = manager.add_task(FunctionTask("a", _square, (2,)))
    b = manager.add_task(FunctionTask("b", _square, (3,)))
    b.depends_on(a)
    states = manager.run()
    assert states == {"a": TaskState.SUCCEEDED, "b": TaskState.SUCCEEDED}


def test_failure_cancels_dependents_but_not_siblings(manager_class):
    manager = manager_class(num_workers=2)
    bad = manager.add_task(FunctionTask("bad", _boom))
    child = manager.add_task(FunctionTask("child", _square, (1,)))
    grandchild = manager.add_task(FunctionTask("grandchild", _square, (1,)))
    other = manager.add_task(FunctionTask("other", _square, (5,)))
    child.depends_on(bad)
    grandchild.depends_on(child)
    states = manager.run()
    assert states["bad"] == TaskState.FAILED
    assert isinstance(bad.error, ValueError)
    assert states["child"] == TaskState.CANCELLED
    assert states["grandchild"] == TaskState.CANCELLED
    assert child.result is None and grandchild.result is None
    # Independent subgraphs keep running.
    assert states["other"] == TaskState.SUCCEEDED
    assert other.result == 25
    assert not manager.succeeded()
    assert [t.name for t in manager.failures()] == ["bad"]


def test_condition_skips_task_but_runs_dependents(manager_class):
    manager = manager_class(num_workers=2)
    skipped = manager.add_task(
        FunctionTask("skipped", _square, (1,), condition=lambda: False)
    )
    dependent = manager.add_task(FunctionTask("dependent", _square, (3,)))
    dependent.depends_on(skipped)
    states = manager.run()
    assert states["skipped"] == TaskState.SKIPPED
    assert skipped.result is None
    assert states["dependent"] == TaskState.SUCCEEDED
    assert dependent.result == 9
    assert manager.succeeded()


def test_raising_condition_fails_the_task_only(manager_class):
    def broken_condition():
        raise KeyError("condition blew up")

    manager = manager_class(num_workers=2)
    broken = manager.add_task(
        FunctionTask("broken", _square, (1,), condition=broken_condition)
    )
    child = manager.add_task(FunctionTask("child", _square, (2,)))
    other = manager.add_task(FunctionTask("other", _square, (5,)))
    child.depends_on(broken)
    states = manager.run()
    assert states["broken"] == TaskState.FAILED
    assert isinstance(broken.error, KeyError)
    assert broken.result is None
    assert states["child"] == TaskState.CANCELLED
    assert states["other"] == TaskState.SUCCEEDED
    assert other.result == 25
    assert [t.name for t in manager.failures()] == ["broken"]


def test_process_task_captures_output(manager_class):
    manager = manager_class(num_workers=2)
    task = manager.add_task(
        ProcessTask("echo", [sys.executable, "-c", "print('hi')"])
    )
    states = manager.run()
    assert states["echo"] == TaskState.SUCCEEDED
    assert task.result == 0
    assert task.stdout.strip() == "hi"


def test_timeout_fails_task(manager_class):
    manager = manager_class(num_workers=2)
    slow = manager.add_task(
        FunctionTask("slow", _sleep_forever, timeout=0.3)
    )
    quick = manager.add_task(FunctionTask("quick", _square, (6,)))
    start = time.monotonic()
    states = manager.run()
    elapsed = time.monotonic() - start
    assert states["slow"] == TaskState.FAILED
    assert isinstance(slow.error, TaskTimeout)
    assert states["quick"] == TaskState.SUCCEEDED
    assert quick.result == 36
    # The abandoned worker must not hold the run hostage for 300s.
    assert elapsed < 60


# -- in-process specifics (closures over test state) --------------------------


def test_dependency_order():
    order = []
    manager = TaskManager()
    a = manager.add_task(FunctionTask("a", lambda: order.append("a")))
    b = manager.add_task(FunctionTask("b", lambda: order.append("b")))
    c = manager.add_task(FunctionTask("c", lambda: order.append("c")))
    c.depends_on(b)
    b.depends_on(a)
    states = manager.run()
    assert order == ["a", "b", "c"]
    assert all(s == TaskState.SUCCEEDED for s in states.values())


def test_diamond_dependencies():
    order = []
    manager = TaskManager()
    top = manager.add_task(FunctionTask("top", lambda: order.append("top")))
    left = manager.add_task(FunctionTask("left", lambda: order.append("left")))
    right = manager.add_task(FunctionTask("right", lambda: order.append("right")))
    bottom = manager.add_task(FunctionTask("bottom", lambda: order.append("bottom")))
    left.depends_on(top)
    right.depends_on(top)
    bottom.depends_on(left, right)
    manager.run()
    assert order[0] == "top"
    assert order[-1] == "bottom"
    assert set(order[1:3]) == {"left", "right"}


def test_condition_true_runs():
    ran = []
    manager = TaskManager()
    manager.add_task(
        FunctionTask("maybe", lambda: ran.append("maybe"),
                     condition=lambda: True)
    )
    manager.run()
    assert ran == ["maybe"]


def test_cycle_detected():
    manager = TaskManager()
    a = manager.add_task(FunctionTask("a", lambda: None))
    b = manager.add_task(FunctionTask("b", lambda: None))
    a.depends_on(b)
    b.depends_on(a)
    with pytest.raises(TaskError):
        manager.run()


def test_self_dependency_rejected():
    task = FunctionTask("a", lambda: None)
    with pytest.raises(TaskError):
        task.depends_on(task)


def test_unknown_dependency_rejected():
    manager = TaskManager()
    a = manager.add_task(FunctionTask("a", lambda: None))
    ghost = FunctionTask("ghost", lambda: None)
    a.depends_on(ghost)
    with pytest.raises(TaskError):
        manager.run()


def test_resource_limits_concurrency():
    active = []
    peak = []
    lock = threading.Lock()

    def work():
        with lock:
            active.append(1)
            peak.append(len(active))
        time.sleep(0.02)
        with lock:
            active.pop()

    manager = TaskManager(resources={"cpus": 2}, num_workers=4)
    for i in range(6):
        manager.add_task(
            FunctionTask(f"t{i}", work, resources={"cpus": 1})
        )
    manager.run()
    assert max(peak) <= 2


def test_impossible_demand_rejected_at_add():
    manager = TaskManager(resources={"mem": 4})
    with pytest.raises(TaskError):
        manager.add_task(FunctionTask("big", lambda: None,
                                      resources={"mem": 8}))


def test_resource_manager_accounting():
    rm = ResourceManager({"gpu": 2})
    task = FunctionTask("t", lambda: None, resources={"gpu": 2})
    assert rm.try_acquire(task)
    assert rm.available("gpu") == 0
    assert not rm.try_acquire(task)
    rm.release(task)
    assert rm.available("gpu") == 2


def test_process_task(tmp_path):
    marker = tmp_path / "out.txt"
    manager = TaskManager()
    task = manager.add_task(
        ProcessTask("touch", ["python", "-c",
                              f"open(r'{marker}', 'w').write('hi')"])
    )
    manager.run()
    assert task.state == TaskState.SUCCEEDED
    assert marker.read_text() == "hi"


def test_process_task_failure():
    manager = TaskManager()
    task = manager.add_task(
        ProcessTask("fail", ["python", "-c", "raise SystemExit(3)"])
    )
    manager.run()
    assert task.state == TaskState.FAILED


def test_observer_sees_every_terminal_state():
    seen = []
    manager = TaskManager(observer=lambda t: seen.append((t.name, t.state)))
    manager.add_task(FunctionTask("ok", lambda: None))
    bad = manager.add_task(FunctionTask("bad", lambda: 1 / 0))
    child = manager.add_task(FunctionTask("child", lambda: None))
    child.depends_on(bad)
    manager.run()
    names = {name for name, _state in seen}
    assert names == {"ok", "bad", "child"}


def test_empty_graph():
    assert TaskManager().run() == {}


def test_invalid_construction():
    with pytest.raises(TaskError):
        FunctionTask("", lambda: None)
    with pytest.raises(TaskError):
        TaskManager(num_workers=0)
