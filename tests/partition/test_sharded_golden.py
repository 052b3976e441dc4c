"""Golden equivalence: sharded PDES execution vs single-process.

The sharded runtime promises *exact* reproduction: the same seed and
config deliver every flit on the same channel at the same (tick,
epsilon) whether the network runs in one process or split across k
shard workers.  DetSan's order-commutative delivery digest -- merged
across shards with :func:`merge_delivery_digests` -- is the witness;
the merged message log is compared record-for-record on top.

Covered on torus/IQ and folded-Clos/OQ (disjoint router send paths),
with a mixed blast+pulse workload (exercises the coordinator's static
stop schedule and delivery-driven kill replay), and with real worker
processes (pickled record streams), forked and spawned.
"""

from __future__ import annotations

import itertools

import pytest

import repro.net.message as message_mod
import repro.net.packet as packet_mod
from repro import Settings, Simulation
from repro.configs import latent_congestion_config
from repro.net.packet import preserve_packet_ids
from repro.partition import runtime
from repro.partition.runtime import run_sharded
from repro.sanitize import attach_sanitizers

from tests.conftest import small_torus_config


def _torus_config() -> dict:
    return small_torus_config(warmup_duration=100, generate_duration=400)


def _clos_config() -> dict:
    return latent_congestion_config(
        injection_rate=0.15, warmup=50, window=150, half_radix=2
    )


def _blast_pulse_config() -> dict:
    config = small_torus_config(
        injection_rate=0.15, warmup_duration=100, generate_duration=300
    )
    config["workload"]["applications"].append({
        "type": "pulse",
        "injection_rate": 0.4,
        "delay": 150,
        "duration": 120,
        "traffic": {"type": "uniform_random"},
        "message_size": {"type": "constant", "size": 4},
    })
    return config


def _single_process(config: dict, max_time: int) -> dict:
    """Reference run; id counters forced to zero like a fresh process.

    Shard workers count message/packet ids from zero (each inside its
    own id scope), and packet ids feed routing decisions, so the
    baseline must too.
    """
    with preserve_packet_ids():
        packet_mod._global_packet_ids = itertools.count(0)
        message_mod._global_message_ids = itertools.count(0)
        simulation = Simulation(Settings.from_dict(config))
        with attach_sanitizers(simulation, "det") as suite:
            results = simulation.run(max_time=max_time)
            suite.finish()
            det = suite.report()["det"]
        records = sorted(
            (r.to_dict() for r in simulation.message_log.records),
            key=lambda d: (d["delivered"], d["id"]),
        )
        return {
            "digest": det["delivery_digest"],
            "deliveries": det["deliveries"],
            "drained": results.drained,
            "records": records,
        }


@pytest.mark.parametrize(
    "name,config,max_time",
    [
        ("torus_iq", _torus_config(), 50_000),
        ("folded_clos_oq", _clos_config(), 2_000),
        ("blast_pulse", _blast_pulse_config(), 50_000),
    ],
)
def test_sharded_matches_single_process(name, config, max_time):
    base = _single_process(config, max_time)
    assert base["drained"] and base["deliveries"] > 0

    config.setdefault("simulator", {})["max_time"] = max_time
    results = run_sharded(config, k=2, sanitize="det")
    assert results.drained, f"{name}: sharded run failed to drain"
    assert results.records_exchanged > 0, f"{name}: no cut traffic"
    assert results.delivery_digest == base["digest"], (
        f"{name}: sharded delivery digest diverged"
    )
    merged = [r.to_dict() for r in results.records]
    assert merged == base["records"], f"{name}: message logs diverged"


@pytest.mark.parametrize("seed", [17, 777])
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_sharded_spawn_matches_single_process(monkeypatch, start_method, seed):
    """Real worker processes computing their windows at the same time:
    replies arrive in whatever order the shards finish, the merge is by
    shard id, so the log is the single-process one at any seed -- with
    the workers forked or spawned."""
    monkeypatch.setattr(runtime, "_start_method", lambda: start_method)
    config = _torus_config()
    config["simulator"]["seed"] = seed
    base = _single_process(config, 50_000)
    config["simulator"]["max_time"] = 50_000
    results = run_sharded(config, k=2, shard_workers=2, sanitize="det")
    assert results.mode == start_method
    assert results.summary()["partition"]["mode"] == start_method
    assert results.drained
    assert results.delivery_digest == base["digest"]
    assert [r.to_dict() for r in results.records] == base["records"]
    assert results.timing()["peak_in_flight"] == 2


def test_forked_workers_ignore_the_coordinators_id_counters(monkeypatch):
    """A forked worker inherits the coordinator's global message and
    packet counters, wherever earlier simulations in the session left
    them; packet ids feed routing, so it must still count from zero."""
    monkeypatch.setattr(runtime, "_start_method", lambda: "fork")
    config = _torus_config()
    base = _single_process(config, 50_000)
    with preserve_packet_ids():
        Simulation(Settings.from_dict(_torus_config())).run(max_time=50_000)
        assert next(packet_mod._global_packet_ids) > 0
        assert next(message_mod._global_message_ids) > 0
        config["simulator"]["max_time"] = 50_000
        results = run_sharded(config, k=2, shard_workers=2, sanitize="det")
    assert results.mode == "fork"
    assert results.delivery_digest == base["digest"]
    assert [r.to_dict() for r in results.records] == base["records"]


def test_custom_registered_app_runs_sharded():
    """Scope widening: a user application earns sharding by analysis.

    ``steady_burst`` is registered at test time under a name no
    runtime list has ever heard of; the old supported-names check
    (``kind not in ("blast", "pulse")``) rejected exactly this.  The
    verdict-driven scope admits it -- the analyzer proves its handshake
    time-driven and its delivery path passive -- and the sharded run
    must then be digest-identical to single-process, like any builtin.
    """
    from repro import factory
    from repro.workload.application import Application
    from repro.workload.pulse import PulseApplication

    if "steady_burst" not in factory.names(Application):
        @factory.register(Application, "steady_burst")
        class SteadyBurstApplication(PulseApplication):
            """A pulse with a louder name and a fixed extra delay."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.delay += 25

            @classmethod
            def shard_schedule(cls, app_config):
                schedule = PulseApplication.shard_schedule(app_config)
                if schedule is None or float(
                        app_config.get("injection_rate", 0.0)) <= 0.0:
                    return schedule
                ready, complete = schedule
                return ready, complete + 25

    config = small_torus_config(
        injection_rate=0.15, warmup_duration=100, generate_duration=300
    )
    config["workload"]["applications"].append({
        "type": "steady_burst",
        "injection_rate": 0.4,
        "delay": 125,
        "duration": 120,
        "traffic": {"type": "uniform_random"},
        "message_size": {"type": "constant", "size": 4},
    })
    base = _single_process(config, 50_000)
    assert base["drained"] and base["deliveries"] > 0

    config.setdefault("simulator", {})["max_time"] = 50_000
    results = run_sharded(config, k=2, sanitize="det")
    assert results.drained
    assert results.records_exchanged > 0
    assert results.delivery_digest == base["digest"]
    merged = [r.to_dict() for r in results.records]
    assert merged == base["records"]


def test_sharded_summary_shape():
    config = _torus_config()
    results = run_sharded(config, k=2)
    summary = results.summary()
    partition = summary["partition"]
    assert partition["k"] == 2
    assert partition["mode"] == "in-process"
    assert results.timing()["peak_in_flight"] == 1
    assert partition["windows"] == results.windows
    assert len(partition["shards"]) == 2
    delivered = sum(s["messages_delivered"] for s in partition["shards"])
    assert delivered == len(results.records)
