"""Unit and fault-injection tests for the sharded PDES runtime.

Digest-level equivalence with single-process runs is covered by
``test_sharded_golden.py``; this module tests the machinery itself:
the conservative window protocol (no record may land inside the window
that produced it), cross-shard object reconstruction, credit
conservation under CreditSan, scope validation, the scatter-then-gather
order of the coordinator (proved from recorded calls, not from a clock),
and the failure paths of both executors.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro import Settings
from repro.partition import plan_partition
from repro.partition.proxy import (
    CREDIT_RECORD,
    FLIT_RECORD,
    ProxyError,
    ShardRegistry,
)
from repro.partition import runtime
from repro.partition.runtime import (
    PartitionRuntimeError,
    _InProcessHandle,
    _ProcessHandle,
    run_sharded,
    validate_sharded_scope,
)

from tests.conftest import small_torus_config


def _small_config(**workload) -> dict:
    workload.setdefault("warmup_duration", 50)
    workload.setdefault("generate_duration", 150)
    return small_torus_config(**workload)


# -- window protocol ---------------------------------------------------------


def test_proxy_records_never_late():
    """Every record produced in window [C, C+L) is due at or after C+L.

    This is the conservative-synchronization invariant the whole
    runtime rests on: records are exchanged at barriers, so a record
    due *inside* its production window could never be injected in time.
    The lookahead (minimum cut-channel latency) must make this
    impossible by construction.

    The workers are driven directly and abandoned mid-run (no drain).
    """
    config = _small_config()
    manifest = plan_partition(Settings.from_dict(config), 2)
    lookahead = manifest["lookahead"]["global"]
    assert lookahead >= 1
    cut_sinks = [entry["sink_shard"] for entry in manifest["cut_channels"]]

    handles = [
        _InProcessHandle(config, manifest, shard, "", False)
        for shard in (0, 1)
    ]
    inboxes = [[], []]
    cursor = 0
    flit_records = credit_records = 0
    heads_seen = set()
    for _ in range(60):
        end = cursor + lookahead
        produced = []
        for handle in handles:
            handle.post(("window", end, inboxes[handle.shard_id], [], None))
            inboxes[handle.shard_id] = []
        for handle in handles:
            produced.extend(handle.collect()["records"])
        for record in produced:
            kind, cut_index, due = record[0], record[1], record[2]
            assert due >= end, (
                f"record {record!r} produced in window ending at {end} "
                f"is already late"
            )
            if kind == FLIT_RECORD:
                flit_records += 1
                gid, index = record[4], record[5]
                if record[6] is not None:
                    heads_seen.add(gid)
                else:
                    # Wormhole order across the cut: a body flit only
                    # ever follows its packet's head.
                    assert gid in heads_seen, (
                        f"body flit of g{gid} crossed before its head"
                    )
            else:
                assert kind == CREDIT_RECORD
                credit_records += 1
            inboxes[cut_sinks[cut_index]].append(record)
        cursor = end
    assert flit_records > 0, "no flits crossed the cut; test is vacuous"
    assert credit_records > 0, "no credits crossed the cut"


@pytest.mark.parametrize("lateness", [0, 1, 3])
def test_record_due_inside_an_executed_window_is_refused(lateness):
    """The ingress puts records straight onto the cut link's wire, so the
    worker itself must refuse one that is due at or before the last
    executed timestamp -- landing it would deliver it late, silently."""
    config = _small_config()
    manifest = plan_partition(Settings.from_dict(config), 2)
    index, entry = next(
        (index, entry)
        for index, entry in enumerate(manifest["cut_channels"])
        if entry["kind"] == "credit"
    )
    handle = _InProcessHandle(config, manifest, entry["sink_shard"], "", False)
    end = 40
    handle.post(("window", end, [], [], None))
    last_executed = handle.worker.simulator.tick
    assert 0 < last_executed < end
    late = (CREDIT_RECORD, index, last_executed - lateness, 0)
    with pytest.raises(PartitionRuntimeError) as excinfo:
        handle.post(("window", end + 1, [late], [], None))
    message = str(excinfo.value)
    assert f"shard {entry['sink_shard']}" in message
    assert f"cut {index} ({entry['name']})" in message
    assert "lookahead violation" in message


def test_registry_rejects_body_before_head():
    registry = ShardRegistry()
    body = (FLIT_RECORD, 0, 10, 0, 42, 1, None)
    with pytest.raises(ProxyError, match="wormhole"):
        registry.materialize_flit(body)


def test_unreleased_cross_shard_message_fails_the_finish_check(monkeypatch):
    """Every message that crossed a cut must be reported delivered and
    dropped from the registry by the end of a drained run; one left
    registered (``registry.outstanding != 0``) fails the shard."""
    dropped = []

    def forgetful_release(registry, message_ids):
        message_ids = list(message_ids)
        registered = [i for i in message_ids if i in registry.messages]
        if not dropped and registered:
            dropped.append(registered[0])
            message_ids.remove(registered[0])
        release_delivered(registry, message_ids)

    release_delivered = ShardRegistry.release_delivered
    monkeypatch.setattr(ShardRegistry, "release_delivered", forgetful_release)
    with pytest.raises(
        PartitionRuntimeError, match=r"never\s+reported delivered \(leak\)"
    ):
        run_sharded(_small_config(), k=2)
    assert dropped


# -- sanitized sharded runs --------------------------------------------------


def test_credit_conservation_sharded():
    """CreditSan holds on both shards with proxied cut channels.

    Cut links are excluded from per-link credit tracking (the loop
    closes across processes); conservation there is covered by the
    coordinator's record-count check plus each worker's egress credit
    occupancy check at finish.
    """
    results = run_sharded(_small_config(), k=2, sanitize="credit")
    assert results.drained
    assert results.records_exchanged > 0
    for report in results.reports:
        # Violations raise immediately (the worker wraps them in a
        # PartitionRuntimeError); a clean return with nonzero checks
        # means conservation held on every non-cut link.
        credit = report["sanitizers"]["credit"]
        assert credit["checks"] > 0
        assert credit["links"] > 0


# -- scope validation --------------------------------------------------------


def test_scope_rejects_unsupported_application_type():
    config = _small_config()
    config["workload"]["applications"][0]["type"] = "stencil"
    with pytest.raises(PartitionRuntimeError, match="time-driven"):
        validate_sharded_scope(config)


def test_scope_rejects_auto_warmup():
    config = _small_config(warmup_mode="auto")
    with pytest.raises(PartitionRuntimeError, match="warmup_mode"):
        validate_sharded_scope(config)


def test_scope_rejects_hop_adaptive_vc_selection():
    config = _small_config()
    config["network"]["routing"]["algorithm"] = "dragonfly_ugal"
    with pytest.raises(PartitionRuntimeError, match="hop_count"):
        validate_sharded_scope(config)


def test_scope_rejects_progress_monitor():
    config = _small_config()
    config["simulator"]["monitor"] = {"period": 100}
    with pytest.raises(PartitionRuntimeError, match="monitor"):
        validate_sharded_scope(config)


def test_scope_rejects_flit_sanitizer():
    with pytest.raises(PartitionRuntimeError, match="flit"):
        validate_sharded_scope(_small_config(), sanitize="flit")


def test_run_sharded_rejects_partial_worker_count():
    with pytest.raises(PartitionRuntimeError, match="shard_workers"):
        run_sharded(_small_config(), k=2, shard_workers=1)


def test_directly_built_handle_refuses_out_of_scope_config():
    """Spawned workers skip the scope check (the coordinator ran it on
    the very dict it ships); a handle built by hand still gets it."""
    config = _small_config()
    manifest = plan_partition(Settings.from_dict(config), 2)
    config["workload"]["applications"][0]["type"] = "stencil"
    with pytest.raises(PartitionRuntimeError, match="time-driven"):
        _InProcessHandle(config, manifest, 0, "", False)


# -- scatter, then gather ----------------------------------------------------


def _recording(base, log):
    """``base`` with every protocol call appended to ``log``."""

    class Recording(base):
        def __init__(self, *args):
            # (..., shard_id, sanitize, crash) for both handle classes.
            log.append(("start", args[-3]))
            super().__init__(*args)

        def post(self, command):
            log.append(("post", self.shard_id, command[0]))
            super().post(command)

        def collect(self):
            log.append(("collect", self.shard_id))
            return super().collect()

    return Recording


def _rounds(log):
    """Split a call log into one list per gather: posts, then collects."""
    rounds, current = [], []
    for entry in log:
        if entry[0] != "collect" and current and current[-1][0] == "collect":
            rounds.append(current)
            current = []
        current.append(entry)
    rounds.append(current)
    return rounds


def test_spawned_shards_are_posted_together_then_gathered(monkeypatch):
    """All k processes start before the first hello is read, and every
    window (and the finish) is posted to every shard before any reply
    is collected -- the shards run at the same time."""
    log = []
    monkeypatch.setattr(
        runtime, "_ProcessHandle", _recording(_ProcessHandle, log)
    )
    results = run_sharded(_small_config(), k=2, shard_workers=2)
    rounds = _rounds(log)
    assert [entry[:2] for entry in rounds[0][:2]] == [("start", 0), ("start", 1)]
    assert len(rounds) == results.windows + 2  # hellos, windows, finish
    for index, calls in enumerate(rounds):
        posts = [entry for entry in calls if entry[0] != "collect"]
        collects = [entry[1] for entry in calls if entry[0] == "collect"]
        assert calls == posts + [("collect", shard) for shard in collects]
        assert [entry[1] for entry in posts] == [0, 1]
        assert sorted(collects) == [0, 1]  # in whatever order they finished
        if 0 < index <= results.windows:
            assert {entry[2] for entry in posts} == {"window"}
    assert {entry[2] for entry in rounds[-1][:2]} == {"finish"}
    assert results.timing()["peak_in_flight"] == 2


def test_in_process_windows_stay_round_robin(monkeypatch):
    log = []
    monkeypatch.setattr(
        runtime, "_InProcessHandle", _recording(_InProcessHandle, log)
    )
    results = run_sharded(_small_config(), k=2)
    window_rounds = _rounds(log)[1:-1]
    assert len(window_rounds) == results.windows
    assert all(
        calls == [("post", 0, "window"), ("post", 1, "window"),
                  ("collect", 0), ("collect", 1)]
        for calls in window_rounds
    )
    assert results.timing()["peak_in_flight"] == 1


def test_replies_collected_out_of_order_merge_in_shard_order(monkeypatch):
    """Stand-in handles whose replies become ready highest shard first:
    the gather reads them in that order, and the merged run is still
    identical to the plain in-process one."""
    config = _small_config()
    expected = run_sharded(config, k=2, sanitize="det")
    collected = []
    peers = {}

    class ReadyInReverse(_InProcessHandle):
        """Shard 1 announces each reply through a pipe at once; shard
        0's is announced only when shard 1's has been collected."""

        def __init__(self, *args):
            self._ready, self._announce = multiprocessing.Pipe(duplex=False)
            self.waitables = (self._ready,)
            super().__init__(*args)
            peers[self.shard_id] = self
            self.post(None)  # the hello is a reply too

        def post(self, command):
            if command is not None:
                super().post(command)
            if self.shard_id == 1:
                self._announce.send(None)

        def collect(self):
            self._ready.recv()
            collected.append(self.shard_id)
            if self.shard_id == 1:
                peers[0]._announce.send(None)
            return super().collect()

    monkeypatch.setattr(runtime, "_InProcessHandle", ReadyInReverse)
    results = run_sharded(config, k=2, sanitize="det")
    assert collected == [1, 0] * (results.windows + 2)
    assert results.delivery_digest == expected.delivery_digest
    assert [r.to_dict() for r in results.records] \
        == [r.to_dict() for r in expected.records]
    assert results.windows == expected.windows
    assert results.records_exchanged == expected.records_exchanged
    assert results.timing()["peak_in_flight"] == 2


def test_timing_reports_the_per_shard_split():
    results = run_sharded(_small_config(), k=2)
    timing = results.timing()
    assert timing["windows"] == results.windows
    assert timing["startup_s"] > 0 and timing["windows_s"] > 0
    assert [shard["shard"] for shard in timing["shards"]] == [0, 1]
    for shard in timing["shards"]:
        assert shard["compute_s"] > 0 and shard["serialize_s"] > 0
        assert shard["wait_s"] == 0  # in-process: nothing to wait on
    slowest = max(shard["compute_s"] for shard in timing["shards"])
    total = sum(shard["compute_s"] for shard in timing["shards"])
    assert slowest <= timing["critical_compute_s"] <= total
    # Host time stays out of the summary, which tests compare against
    # the single-process one.
    assert "timing" not in results.summary()["partition"]


# -- failures with replies outstanding ---------------------------------------


@pytest.fixture
def reaped(monkeypatch):
    """Spawned handles that note every ``join``; after the test no join
    may have returned with its process still running (a waited-out
    timeout) and no worker may be left alive."""
    monkeypatch.setattr(runtime, "JOIN_TIMEOUT_S", 0.5)
    handles = []
    timed_out = []

    class Reaped(_ProcessHandle):
        def __init__(self, *args):
            super().__init__(*args)
            handles.append(self)
            join = self._proc.join

            def noted_join(timeout=None):
                join(timeout)
                timed_out.append(self._proc.is_alive())

            self._proc.join = noted_join

    yield Reaped
    assert handles and not any(timed_out)
    assert all(handle._proc.exitcode is not None for handle in handles)


def _is_nth(log, command, op, nth):
    """Note ``command`` in ``log``; True when it is the ``nth`` ``op``."""
    log.append(command[0])
    return command[0] == op and log.count(op) == nth


@pytest.mark.parametrize("failing", [0, 1])
def test_worker_crash_surfaces_clean_error(monkeypatch, reaped, failing):
    """A dying worker process raises a shard-naming error, not a hang.

    The fault injection makes one shard ``os._exit`` inside its second
    window.  The other shard never even receives that window here, so
    its reply stays outstanding for good: the gather must raise on the
    dead shard's sentinel instead of waiting for the live one, and the
    survivor is terminated rather than asked to close.
    """

    class SurvivorNeverReplies(reaped):
        def __init__(self, *args):
            super().__init__(*args)
            self._ops = []

        def post(self, command):
            if self.shard_id != failing \
                    and _is_nth(self._ops, command, "window", 2):
                return
            super().post(command)

    monkeypatch.setattr(runtime, "_ProcessHandle", SurvivorNeverReplies)
    with pytest.raises(
        PartitionRuntimeError, match=rf"shard {failing}.*died"
    ):
        run_sharded(
            _small_config(), k=2, shard_workers=2, _crash_shard=failing
        )


@pytest.mark.parametrize("op", ["window", "finish"])
@pytest.mark.parametrize("mode", ["raise", "exit"])
def test_spawned_worker_failure_names_the_shard(monkeypatch, reaped, op, mode):
    """Shard 1 fails -- replying with an error, or dying -- on its second
    window or on ``finish``, while shard 0 was posted the real command
    and its reply is unread (for ``finish``: the whole report)."""
    nth = 2 if op == "window" else 1

    class FailsOnCommand(reaped):
        def __init__(self, *args):
            super().__init__(*args)
            self._ops = []

        def post(self, command):
            if self.shard_id == 1 and _is_nth(self._ops, command, op, nth):
                if mode == "exit":
                    self._proc.kill()
                    return
                command = ("no-such-command",)
            super().post(command)

    monkeypatch.setattr(runtime, "_ProcessHandle", FailsOnCommand)
    expected = r"shard 1.*died" if mode == "exit" \
        else r"(?s)shard 1 worker failed.*no-such-command"
    with pytest.raises(PartitionRuntimeError, match=expected):
        run_sharded(_small_config(), k=2, shard_workers=2)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_closing_a_shards_pipe_ends_that_worker_alone():
    """Shard 1 is forked holding a copy of shard 0's coordinator pipe
    end (and each worker one of its own).  Both copies must be closed in
    the workers, or shard 0 never reads EOF when the coordinator closes
    its end, and lives on until it is terminated."""
    config = _small_config()
    manifest = plan_partition(Settings.from_dict(config), 2)
    ctx = multiprocessing.get_context("fork")
    handles = []
    try:
        for shard in (0, 1):
            handles.append(
                _ProcessHandle(ctx, handles, config, manifest, shard, "", False)
            )
        runtime._gather(handles, runtime._Clock(2))  # both built, serving
        handles[0]._conn.close()
        handles[0]._proc.join(runtime.JOIN_TIMEOUT_S)
        assert handles[0]._proc.exitcode == 0
        assert handles[1]._proc.is_alive()
    finally:
        for handle in handles:
            handle.close(abort=True)


def test_gather_raises_for_the_lowest_failed_shard():
    class Replied:
        waitables = ()

        def __init__(self, shard_id, fails):
            self.shard_id, self.fails = shard_id, fails

        def collect(self):
            if self.fails:
                raise PartitionRuntimeError(f"shard {self.shard_id} failed")
            return {}

    handles = [Replied(0, False), Replied(2, True), Replied(1, True)]
    with pytest.raises(PartitionRuntimeError, match="shard 1 failed"):
        runtime._gather(handles, runtime._Clock(3))


def test_worker_exception_names_shard_in_process(monkeypatch):
    """In-process ``raise`` mode: shard 1 raises in its second window,
    inline in ``post``, with shard 0's reply for that window unread."""
    log = []
    monkeypatch.setattr(
        runtime, "_InProcessHandle", _recording(_InProcessHandle, log)
    )
    with pytest.raises(PartitionRuntimeError, match=r"shard 1"):
        run_sharded(_small_config(), k=2, shard_workers=0, _crash_shard=1)
    assert log[-2:] == [("post", 0, "window"), ("post", 1, "window")]
