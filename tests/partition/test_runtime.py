"""Unit and fault-injection tests for the sharded PDES runtime.

Digest-level equivalence with single-process runs is covered by
``test_sharded_golden.py``; this module tests the machinery itself:
the conservative window protocol (no record may land inside the window
that produced it), cross-shard object reconstruction, credit
conservation under CreditSan, scope validation, and the crash path of
the process executor.
"""

from __future__ import annotations

import pytest

from repro import Settings
from repro.partition import plan_partition
from repro.partition.proxy import (
    CREDIT_RECORD,
    FLIT_RECORD,
    ProxyError,
    ShardRegistry,
)
from repro.partition.runtime import (
    PartitionRuntimeError,
    _InProcessHandle,
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
            reply = handle.window(end, inboxes[handle.shard_id], [], None)
            inboxes[handle.shard_id] = []
            produced.extend(reply["records"])
        for record in produced:
            kind, cut_index, due = record[0], record[1], record[2]
            assert due >= end, (
                f"record {record!r} produced in window ending at {end} "
                f"is already late"
            )
            if kind == FLIT_RECORD:
                flit_records += 1
                gid, index = record[5], record[6]
                if record[7] is not None:
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
    handle.window(end, [], [], None)
    last_executed = handle.worker.simulator.tick
    assert 0 < last_executed < end
    late = (CREDIT_RECORD, index, last_executed - lateness, 0)
    with pytest.raises(PartitionRuntimeError) as excinfo:
        handle.window(end + 1, [late], [], None)
    message = str(excinfo.value)
    assert f"shard {entry['sink_shard']}" in message
    assert f"cut {index} ({entry['name']})" in message
    assert "lookahead violation" in message


def test_registry_rejects_body_before_head():
    registry = ShardRegistry()
    body = (FLIT_RECORD, 0, 10, 0, 8, 42, 1, None)
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


# -- process executor faults -------------------------------------------------


def test_worker_crash_surfaces_clean_error():
    """A dying worker process raises a shard-naming error, not a hang.

    The fault injection makes shard 1 ``os._exit`` inside its second
    window; the coordinator's receive loop waits on the process
    sentinel alongside the pipe, so the death is observed immediately.
    """
    with pytest.raises(PartitionRuntimeError, match=r"shard 1.*died"):
        run_sharded(_small_config(), k=2, shard_workers=2, _crash_shard=1)


def test_worker_exception_names_shard_in_process():
    with pytest.raises(PartitionRuntimeError, match=r"shard 1"):
        run_sharded(_small_config(), k=2, shard_workers=0, _crash_shard=1)
