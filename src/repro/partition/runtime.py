"""Sharded conservative-PDES executor driven by partition manifests.

:func:`run_sharded` executes one simulation configuration as ``k``
communicating sub-simulations, one per shard of a PR-5 partition
manifest (:mod:`repro.partition.manifest`).  Each worker builds the
*full* component graph -- names, wiring, RNG label registration and id
sequences must match the single-process run bit-for-bit -- but only its
own shard's routers are finalized and driven.  Channels crossing the
cut are replaced by proxy endpoints (:mod:`repro.partition.proxy`) that
serialize sends into plain-tuple records; the coordinator routes the
records to the sink shards between windows, where they go onto the
ingress channels' own in-flight FIFOs and land through the ordinary
landing wheel and ``_deliver_item`` surface.

Synchronization is conservative (no rollback).  The lookahead ``L`` is
the manifest's global minimum cut-channel latency: a record produced in
window ``[C0, C)`` has ``due >= C0 + L >= C`` (windows never exceed
``L``), so exchanging records only at window barriers can never deliver
one late.  Termination mirrors the single-process Workload handshake:

* Ready/Start/Complete/Stop are *time-driven* for every admitted
  application -- :func:`validate_sharded_scope` derives the admission
  from shard-purity verdicts (:mod:`repro.lint.shard_rules`) plus each
  class's :meth:`Application.shard_schedule`, not from a name list --
  so every worker reaches them at identical ticks and no coordination
  is needed; the coordinator computes the stop tick statically from
  the configuration and caps pre-stop windows at it.
* Done/Kill are *delivery-driven*, so workers' local ``done`` signals
  are muted and the coordinator replays the decision globally: after
  Stop every application's delivery target (its class's
  ``shard_delivery_target``: sampled messages created for blast, all
  messages created otherwise -- identical in every worker, asserted)
  is compared against the merged delivery stream.  While
  ``R`` relevant deliveries are still missing, windows shrink to
  ``min(L, ceil(R / num_terminals))`` ticks: at most one message can
  complete per interface per tick, so the kill tick is provably at
  least that far away and no worker ever executes past it.  When ``R``
  reaches zero the executed bound sits exactly on the kill tick (a
  checked invariant) and the Kill command is applied between windows --
  equivalent to the single-process kill, which executes after the
  tick's generate events but only cancels events at strictly later
  ticks.
* After Kill, drain windows of ``L`` run until every worker's event
  queue is empty and no records remain in flight.

Correctness is anchored by DetSan: a worker attaches its sanitizers
with ``DetSan(retain_buckets=True)``, and the merged per-shard delivery
digests (:func:`repro.sanitize.det_san.merge_delivery_digests`) must
equal the single-process delivery digest for the same seed.

Two executors share all of the above, and one coordinator loop drives
both through the same two-phase handle protocol: ``post(command)``
hands a shard its next command and returns without waiting;
:func:`_gather` then collects one reply per shard and lists them by
shard id, so the merge order -- and with it every digest -- does not
depend on which shard answered first.  Every step is scatter, then
gather: all ``k`` workers are started before the first hello is read,
every window is posted to all shards before any reply is read, and the
``finish`` reports are requested together.

* ``shard_workers=0`` hosts every worker in the calling process; its
  ``post`` runs the command inline, so the windows execute round-robin
  -- no IPC, deterministic, the mode the digest-equality goldens run
  in.
* ``shard_workers=k`` starts one OS process per shard and exchanges
  commands over pipes; between scatter and gather the shards compute at
  the same time.  The processes are forked where that is safe (Linux,
  and no other thread in the coordinator: :func:`_start_method`) and
  spawned otherwise.  A forked worker inherits the already imported
  ``repro`` instead of importing it again; it closes the pipe ends it
  inherited from the coordinator, and the coordinator freezes its heap
  around the forks so the workers' collectors do not copy it page by
  page.  :func:`_gather` waits on every outstanding pipe *and* process
  sentinel at once, so a worker that raises or dies -- while the others
  are mid-window, or blocked writing a large report -- ends the run at
  once with a :class:`PartitionRuntimeError` naming that shard (the
  lowest id if several failed); the surviving workers are terminated,
  not asked to close.

:meth:`ShardedResults.timing` reports where the wall time went: start-up,
and per shard the seconds computing windows, serializing replies, and
keeping the coordinator blocked at the barrier.
"""

from __future__ import annotations

import gc
import pickle
import sys
import threading
import traceback
from multiprocessing import connection as _mp_connection
from multiprocessing import get_context as _mp_get_context
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.config.settings import Settings
from repro.net.credit import Credit
from repro.net.network import shard_build_scope
from repro.partition.manifest import config_fingerprint
from repro.partition.proxy import (
    FLIT_RECORD,
    Record,
    ShardRegistry,
    make_egress,
    make_phantom_interface,
)
from repro.sim import Simulation
from repro.stats.latency import LatencyDistribution
from repro.stats.records import MessageRecord
from repro.workload.workload import Phase


class PartitionRuntimeError(RuntimeError):
    """Raised for sharded-execution failures (always names the shard)."""


#: drain windows after Kill before declaring the run wedged.
MAX_DRAIN_ROUNDS = 10_000

#: seconds a closing worker process gets to exit before it is terminated
#: (and a terminated one to be reaped).
JOIN_TIMEOUT_S = 10.0


# -- scope validation --------------------------------------------------------


def validate_sharded_scope(config: dict, sanitize: str = "") -> None:
    """Reject configurations the sharded runtime cannot replay exactly.

    The phantom-terminal replay requires every workload control
    transition to be time-driven and every worker to consume the shared
    RNG streams in the same order.  There is no list of blessed model
    names here: the scope is *derived*, per registered class, by the
    shard-purity analyzer (:mod:`repro.lint.shard_rules`).  A model is
    admitted when the interprocedural S-rules find no hazard applicable
    to this configuration AND (for applications) the class derives a
    static Ready/Complete schedule from the config alone
    (:meth:`Application.shard_schedule`).  Rejections carry the
    analyzer's evidence chain, so a custom model's author sees exactly
    which method path reads shard-divergent state.
    """
    from repro import factory
    from repro.factory import FactoryError
    from repro.lint.shard_rules import UNKNOWN, analyze_class
    from repro.models import load_all
    from repro.routing.base import RoutingAlgorithm
    from repro.workload.application import Application

    load_all()
    problems = []

    def vet(cls, kind: str, block: dict, subject: str) -> bool:
        """Analyzer verdict for one model; True when clean here."""
        verdict = analyze_class(cls, kind)
        if verdict.classification == UNKNOWN:
            problems.append(
                f"{subject}: source of {cls.__name__} is unavailable, so "
                f"its shard purity cannot be established statically"
            )
            return False
        hazards = verdict.applicable_hazards(block)
        problems.extend(f"{subject}: {h.render()}" for h in hazards)
        return not hazards

    workload = config.get("workload", {})
    for index, app in enumerate(workload.get("applications", ())):
        kind = app.get("type")
        subject = f"application {index} ({kind})"
        try:
            cls = factory.lookup(Application, kind)
        except FactoryError:
            problems.append(
                f"application {index} has unregistered type {kind!r}; "
                f"sharded execution needs a registered, statically "
                f"analyzable time-driven application"
            )
            continue
        clean = vet(cls, "application", app, subject)
        if clean and cls.shard_schedule(app) is None:
            problems.append(
                f"{subject}: shard_schedule() derives no static "
                f"Ready/Complete schedule from this configuration; the "
                f"sharded runtime needs a time-driven handshake"
            )
    network = config.get("network", {})
    algorithm = network.get("routing", {}).get("algorithm", "")
    try:
        routing_cls = factory.lookup(RoutingAlgorithm, algorithm)
    except FactoryError:
        routing_cls = None  # the settings layer reports unknown names
    if routing_cls is not None:
        vet(
            routing_cls,
            "routing",
            network.get("routing", {}),
            f"routing algorithm {algorithm!r}",
        )
    from repro.config.spec import spec_of
    from repro.net.network import Network
    from repro.sim import SIMULATOR

    for kind in ("router", "interface"):
        spec = spec_of(Network, kind)
        block = network.get(kind, {})
        name = block.get(spec.selector, spec.default or "")
        try:
            cls = factory.lookup(spec.model, name)
        except FactoryError:
            continue  # the settings layer reports unknown names
        vet(cls, kind, block, f"{kind} {name!r}")
    monitor = config.get("simulator", {}).get("monitor", {})
    monitor_spec = SIMULATOR["monitor"].model
    if monitor.get("period", spec_of(monitor_spec, "period").default) > 0:
        problems.append(
            "simulator.monitor.period > 0: the progress monitor samples "
            "whole-network state a shard does not have; disable it"
        )
    if sanitize:
        from repro.sanitize.base import _parse_spec

        if "flit" in _parse_spec(sanitize):
            problems.append(
                "sanitizer 'flit' tracks flit custody across the whole "
                "network and cannot see cut crossings; run it on a "
                "single-process simulation instead"
            )
    if problems:
        raise PartitionRuntimeError(
            "configuration outside the sharded-runtime scope:\n  - "
            + "\n  - ".join(problems)
        )


def _static_stop_schedule(config: dict) -> Tuple[int, int]:
    """(start_tick, stop_tick) of the workload, computed without running.

    Valid exactly for the applications :func:`validate_sharded_scope`
    admits, whose :meth:`Application.shard_schedule` derives Ready and
    Complete as pure functions of the configuration; every worker's
    reported ticks are asserted against this schedule.
    """
    from repro import factory
    from repro.models import load_all
    from repro.workload.application import Application

    load_all()
    schedules = []
    for app in config["workload"]["applications"]:
        cls = factory.lookup(Application, app["type"])
        schedule = cls.shard_schedule(app)
        if schedule is None:  # validate_sharded_scope already vetoes this
            raise PartitionRuntimeError(
                f"application type {app['type']!r} has no static schedule"
            )
        schedules.append(schedule)
    t_start = max(ready for ready, _offset in schedules)
    return t_start, max(
        t_start + offset for _ready, offset in schedules
    )


# -- shard worker ------------------------------------------------------------


def _muted_done() -> None:
    """Replaces ``app.done`` in workers: the coordinator decides Kill."""


class ShardWorker:
    """One shard's sub-simulation (used by both executors).

    Drives the full network build (restricted finalize), phantom
    patching of foreign interfaces, proxy installation, and the
    windowed run protocol.  ``crash_mode`` is test-only fault
    injection: ``"raise"`` raises and ``"exit"`` hard-exits the process
    on the second window, exercising the coordinator's crash handling.

    The configuration must already have passed
    :func:`validate_sharded_scope` (:func:`run_sharded` and
    :class:`_InProcessHandle` see to it); the worker itself only checks
    that the manifest was planned for this configuration.
    """

    def __init__(
        self,
        config: dict,
        manifest: dict,
        shard_id: int,
        sanitize: str = "",
        crash_mode: Optional[str] = None,
    ):
        fingerprint = config_fingerprint(config)
        if fingerprint != manifest["config_fingerprint"]:
            raise PartitionRuntimeError(
                f"shard {shard_id}: manifest fingerprint "
                f"{manifest['config_fingerprint']} does not match the "
                f"configuration ({fingerprint}); re-plan the partition"
            )
        self.shard_id = shard_id
        self._crash_mode = crash_mode
        self.local_names = frozenset(
            manifest["shards"][shard_id]["components"]
        )
        with shard_build_scope(self.local_names):
            self.simulation = Simulation(Settings(config))
        self.simulator = self.simulation.simulator
        network = self.simulation.network

        self.local_interfaces = []
        for interface in network.interfaces:
            if interface.full_name in self.local_names:
                self.local_interfaces.append(interface)
            else:
                make_phantom_interface(interface)

        self.registry = ShardRegistry()
        self.outbox: List[Record] = []
        self._ingress: Dict[int, Any] = {}
        self._egress_flit_cuts = []
        for index, entry in enumerate(manifest["cut_channels"]):
            channel = self.simulator.find_component(entry["name"])
            if channel is None:
                raise PartitionRuntimeError(
                    f"shard {shard_id}: cut channel {entry['name']!r} not "
                    f"found in the built network; manifest/config mismatch"
                )
            # Flag both endpoints' instances in every worker so link
            # checkers (CreditSan) skip half-visible links.
            channel.shard_proxy = True
            if entry["source_shard"] == shard_id:
                make_egress(channel, index, self.outbox, self.registry)
                if entry["kind"] == "flit":
                    self._egress_flit_cuts.append((entry, channel))
            if entry["sink_shard"] == shard_id:
                self._ingress[index] = channel

        for app in self.simulation.workload.applications:
            app.done = _muted_done

        self.suite = None
        self._det = None
        if sanitize:
            from repro import factory
            from repro.sanitize import base as sanitize_base
            from repro.sanitize.det_san import DetSan

            sanitizers = []
            for name in sanitize_base._parse_spec(sanitize):
                if name == "det":
                    # Retain buckets so per-shard digests can be merged.
                    sanitizer = DetSan(retain_buckets=True)
                    self._det = sanitizer
                else:
                    sanitizer = factory.create(
                        sanitize_base.Sanitizer, name
                    )
                sanitizers.append(sanitizer)
            self.suite = sanitize_base.SanitizerSuite(sanitizers).attach(
                self.simulation
            )

        self._delivered: List[Tuple[int, int, int, bool]] = []
        for interface in self.local_interfaces:
            interface.message_delivered_listeners.append(self._on_delivered)
        self._ingress_counts: Dict[int, int] = {}
        self.windows_run = 0
        self._executed_end = 0  # exclusive end of the last window run
        #: seconds spent building window replies (and, in a worker
        #: process, pickling them: ``_worker_main`` adds that share).
        self.serialize_s = 0.0

    # -- delivery capture --------------------------------------------------

    def _on_delivered(self, message) -> None:
        self._delivered.append((
            message.id,
            message.application_id,
            message.delivered_tick,
            message.sampled,
        ))

    # -- protocol ----------------------------------------------------------

    def hello(self) -> dict:
        network = self.simulation.network
        return {
            "num_terminals": network.num_terminals,
            "channel_period": network.channel_period,
            "local_interfaces": len(self.local_interfaces),
        }

    def run_window(
        self,
        end: int,
        records: List[Record],
        delivered_ids: List[int],
        kill_tick: Optional[int],
    ) -> dict:
        if self._crash_mode is not None and self.windows_run >= 1:
            if self._crash_mode == "exit":
                import os

                os._exit(13)
            raise RuntimeError(
                f"injected crash in shard {self.shard_id} worker"
            )
        started = perf_counter()
        self.registry.release_delivered(delivered_ids)
        if kill_tick is not None:
            self._apply_kill(kill_tick)
        counts = self._ingress_counts
        for record in records:
            index = record[1]
            channel = self._ingress.get(index)
            if channel is None:
                raise PartitionRuntimeError(
                    f"shard {self.shard_id}: received a record for cut "
                    f"{index}, whose sink is not in this shard"
                )
            due = record[2]
            if due < self._executed_end:
                raise PartitionRuntimeError(
                    f"shard {self.shard_id}: record for cut {index} "
                    f"({channel.full_name}) is due at tick {due}, inside "
                    f"the window already executed up to tick "
                    f"{self._executed_end}: lookahead violation"
                )
            counts[index] = counts.get(index, 0) + 1
            if record[0] == FLIT_RECORD:
                item = self.registry.materialize_flit(record)
            else:
                item = Credit.of(record[3])
            # Onto the ingress link's own wire: the landing wheel
            # delivers it through ``_deliver_item`` like a local item.
            channel._launch(due, item)
        executed = self.simulator.run_until(end)
        computed = perf_counter()
        self._executed_end = end
        self.windows_run += 1

        out = list(self.outbox)
        self.outbox.clear()
        delivered = self._delivered
        self._delivered = []
        workload = self.simulation.workload
        response = {
            "records": out,
            "delivered": delivered,
            "pending": self.simulator.pending_events,
            "executed": executed,
            "tick": self.simulator.tick,
            "start_tick": workload.start_tick,
            "stop_tick": workload.stop_tick,
            "compute_s": computed - started,
        }
        if workload.stop_tick is not None:
            response["targets"] = self._targets()
        self.serialize_s += perf_counter() - computed
        return response

    def _targets(self) -> Dict[int, Tuple[str, int]]:
        """Per-application delivery targets, fixed once Stop has passed.

        Creation counters are global (every worker replays every
        terminal), so all workers report identical targets -- the
        coordinator asserts it.
        """
        targets = {}
        for app in self.simulation.workload.applications:
            if app.shard_delivery_target == "sampled":
                targets[app.application_id] = ("sampled", app.sampled_created)
            else:
                targets[app.application_id] = ("all", app.messages_created)
        return targets

    def _apply_kill(self, kill_tick: int) -> None:
        """Replay the Workload's Kill broadcast between windows.

        Equivalent to the single-process ``_all_done``: the kill event
        there runs at ``(kill_tick, eps >= EPS_CONTROL)``, after the
        tick's generate events (``EPS_GENERATE``), and only cancels
        pending generates at strictly later ticks (injection gaps are
        >= 1 tick) -- exactly the set cancelled here after the window
        executed through ``kill_tick``.
        """
        workload = self.simulation.workload
        if workload.phase is Phase.DRAINING:
            return
        if workload.phase is not Phase.FINISHING:
            raise PartitionRuntimeError(
                f"shard {self.shard_id}: kill at tick {kill_tick} but the "
                f"workload is still {workload.phase.value}; the coordinator "
                f"and the static stop schedule disagree"
            )
        workload.phase = Phase.DRAINING
        workload.kill_tick = kill_tick
        for app in workload.applications:
            workload._done[app.application_id] = True
            app.shard_force_done()
            app.on_kill()

    def finish(self, delivered_ids: List[int], strict: bool = True) -> dict:
        """Final quiescence checks and the shard's merged report.

        ``strict=False`` (a run truncated by ``max_time``, mirroring a
        single-process run that hit its safety limit) skips the
        drained-network invariants -- traffic is legitimately still in
        flight.
        """
        self.registry.release_delivered(delivered_ids)
        errors = []
        if strict and self.outbox:
            errors.append(f"{len(self.outbox)} unrouted egress records")
        pending = self.simulator.pending_events
        if strict and pending:
            errors.append(f"{pending} events still pending at finish")
        if strict and self.registry.outstanding:
            errors.append(
                f"{self.registry.outstanding} cross-shard messages never "
                f"reported delivered (leak)"
            )
        # Quiescent-drain credit check for egress cuts: CreditSan skips
        # proxied links, so verify here that every credit the upstream
        # device spent on a cut channel came home.
        if strict:
            for entry, channel in self._egress_flit_cuts:
                device = self.simulator.find_component(entry["source"])
                port = device._flit_out.index(channel)
                first = port * device.num_vcs
                for vc in range(device.num_vcs):
                    o = first + vc
                    occupancy = device._credit_capacity[o] - device._credits[o]
                    if occupancy:
                        errors.append(
                            f"cut {entry['name']}: {occupancy} credits for "
                            f"VC {vc} still outstanding at quiescence"
                        )
        reports = {}
        if self.suite is not None:
            self.suite.finish()
            reports = self.suite.report()
        if errors:
            raise PartitionRuntimeError(
                f"shard {self.shard_id} failed finish checks:\n  - "
                + "\n  - ".join(errors)
            )
        workload = self.simulation.workload
        counters = {}
        for app in workload.applications:
            counters[app.application_id] = {
                "messages_created": app.messages_created,
                "messages_delivered": app.messages_delivered,
                "sampled_created": app.sampled_created,
                "sampled_delivered": app.sampled_delivered,
                "flits_created": app.flits_created,
                "sampled_flits_created": app.sampled_flits_created,
            }
        report = {
            "shard": self.shard_id,
            "records": [r.to_dict() for r in self.simulation.message_log.records],
            "counters": counters,
            "events_executed": self.simulator.executed_events,
            "end_tick": self.simulator.tick,
            "windows": self.windows_run,
            "ingress_counts": self._ingress_counts,
            "drained": workload.drained,
            "start_tick": workload.start_tick,
            "stop_tick": workload.stop_tick,
            "kill_tick": workload.kill_tick,
            "sanitizers": reports,
            "serialize_s": self.serialize_s,
        }
        if self._det is not None:
            report["delivery_buckets"] = list(self._det.delivery_buckets)
        return report


# -- in-process executor -----------------------------------------------------


def _serve(worker: ShardWorker, command: tuple) -> dict:
    """Execute one coordinator command against ``worker``."""
    op = command[0]
    if op == "window":
        return worker.run_window(*command[1:])
    if op == "finish":
        return worker.finish(*command[1:])
    raise PartitionRuntimeError(f"unknown command {op!r}")


class _InProcessHandle:
    """Hosts one ShardWorker in the coordinating process.

    ``post`` runs the command before it returns, so there is never
    anything to wait on and at most one shard is ever at work.
    """

    mode = "in-process"
    waitables = ()

    def __init__(self, config, manifest, shard_id, sanitize, crash):
        # Memoised per model class, so free after run_sharded's own call;
        # keeps a directly built handle refusing an out-of-scope config.
        validate_sharded_scope(config, sanitize)
        self.shard_id = shard_id
        self.worker = ShardWorker(
            config,
            manifest,
            shard_id,
            sanitize=sanitize,
            crash_mode="raise" if crash else None,
        )
        self._reply = self.worker.hello()

    def post(self, command: tuple) -> None:
        try:
            self._reply = _serve(self.worker, command)
        except PartitionRuntimeError:
            raise
        except Exception as exc:
            if command[0] == "finish":
                raise  # a sanitizer's closing verdict keeps its own type
            raise PartitionRuntimeError(
                f"shard {self.shard_id} worker failed: {exc}"
            ) from exc

    def collect(self) -> dict:
        reply, self._reply = self._reply, None
        return reply

    @property
    def suite(self):
        return self.worker.suite

    def close(self, abort: bool) -> None:
        pass


# -- process executor --------------------------------------------------------


def _start_method() -> str:
    """How :func:`run_sharded` starts its worker processes.

    ``"fork"`` on Linux while the coordinator runs no other thread: a
    forked worker starts with ``repro`` and numpy already imported.  A
    thread may hold a lock at the moment of the fork, which the child
    would inherit held forever, so with other threads running -- and on
    platforms without a safe ``fork`` -- the workers are spawned.
    """
    if sys.platform.startswith("linux") and threading.active_count() == 1:
        return "fork"
    return "spawn"


def _worker_main(conn, payload, inherited) -> None:
    """Worker-process entry: build one ShardWorker, serve commands.

    ``inherited`` lists the coordinator's pipe ends a forked worker got
    with the coordinator's memory (its own shard's and those of the
    shards started before it; empty when spawned).  They are closed
    first: a worker holding a copy of another shard's coordinator end
    would keep that shard from reading EOF when the coordinator goes.
    The coordinator validated the scope of the very config it hands
    over, so the worker is built directly.
    """
    for end in inherited:
        end.close()
    try:
        worker = ShardWorker(
            payload["config"],
            payload["manifest"],
            payload["shard"],
            sanitize=payload["sanitize"],
            crash_mode="exit" if payload["crash"] else None,
        )
        conn.send(("ok", worker.hello()))
    except Exception:
        conn.send(("error", traceback.format_exc()))
        return
    while True:
        try:
            command = conn.recv()
        except EOFError:
            return
        if command[0] == "close":
            return
        try:
            reply = _serve(worker, command)
            pickling = perf_counter()
            body = pickle.dumps(("ok", reply), pickle.HIGHEST_PROTOCOL)
            worker.serialize_s += perf_counter() - pickling
        except Exception:
            body = pickle.dumps(("error", traceback.format_exc()))
        conn.send_bytes(body)


class _ProcessHandle:
    """One worker process plus its command pipe.

    Constructing the handle starts the process -- with ``ctx``'s start
    method, reported as ``mode`` -- and returns; the hello is the first
    reply :func:`_gather` collects.  ``siblings`` are the handles of the
    shards already started, whose coordinator pipe ends a forked child
    inherits and closes (:func:`_worker_main`).  ``waitables`` holds the
    pipe *and* the process sentinel, so a worker that dies without a
    reply (crash, ``os._exit``) wakes the gather and produces an
    immediate :class:`PartitionRuntimeError` naming the shard instead
    of a hang.
    """

    suite = None  # sanitizers live (and detach) inside the process

    def __init__(
        self, ctx, siblings, config, manifest, shard_id, sanitize, crash
    ):
        self.shard_id = shard_id
        self.mode = ctx.get_start_method()
        self._conn, child_conn = ctx.Pipe()
        inherited = []
        if self.mode == "fork":
            inherited = [self._conn] + [peer._conn for peer in siblings]
        self._proc = ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                {
                    "config": config,
                    "manifest": manifest,
                    "shard": shard_id,
                    "sanitize": sanitize,
                    "crash": crash,
                },
                inherited,
            ),
            daemon=True,
        )
        self._proc.start()
        child_conn.close()
        self.waitables = (self._conn, self._proc.sentinel)

    def post(self, command: tuple) -> None:
        self._conn.send(command)

    def collect(self) -> dict:
        """The reply :func:`_gather` found ready; a dead worker raises."""
        try:
            # Never blocks: a dead worker's end of the pipe is closed, so
            # a wake-up by the sentinel alone reads EOF at once.
            status, value = self._conn.recv()
        except (EOFError, OSError):
            self._proc.join(timeout=JOIN_TIMEOUT_S)
            raise PartitionRuntimeError(
                f"shard {self.shard_id} worker process died (exit code "
                f"{self._proc.exitcode}) without reporting an error"
            ) from None
        if status == "error":
            raise PartitionRuntimeError(
                f"shard {self.shard_id} worker failed:\n{value}"
            )
        return value

    def close(self, abort: bool) -> None:
        """Reap the process: ask it to exit, or (``abort``) terminate it."""
        if not abort:
            try:
                self._conn.send(("close",))
            except OSError:
                pass
            self._proc.join(timeout=JOIN_TIMEOUT_S)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=JOIN_TIMEOUT_S)
        self._conn.close()


# -- coordinator -------------------------------------------------------------


class _Clock:
    """Where the coordinator's wall time went during one phase."""

    def __init__(self, k: int) -> None:
        #: per shard: seconds the coordinator sat blocked in
        #: :func:`_gather` while that shard's reply was outstanding.
        self.wait_s = [0.0] * k
        #: most replies ever awaited at once; 1 when every ``post`` ran
        #: its command inline (one shard at work at a time).
        self.peak_in_flight = 0


def _gather(handles: List[Any], clock: _Clock) -> List[dict]:
    """Collect the reply every handle owes; replies listed by shard id.

    Blocks on all outstanding pipes and process sentinels at once, so
    replies are read in completion order but returned in shard order.
    The first ``collect`` that raises stops the reading: the error of
    the lowest failed shard propagates and the caller aborts the rest.
    """
    replies: Dict[int, dict] = {}
    failures: Dict[int, PartitionRuntimeError] = {}
    pending = {handle.shard_id: handle for handle in handles}
    while pending and not failures:
        owners = {
            waitable: shard_id
            for shard_id, handle in pending.items()
            for waitable in handle.waitables
        }
        awaited = set(owners.values())
        clock.peak_in_flight = max(clock.peak_in_flight, len(awaited) or 1)
        if owners:
            blocked = perf_counter()
            ready = {owners[w] for w in _mp_connection.wait(list(owners))}
            blocked = perf_counter() - blocked
            for shard_id in awaited:
                clock.wait_s[shard_id] += blocked
        else:
            ready = set(pending)
        for shard_id in sorted(ready):
            try:
                replies[shard_id] = pending.pop(shard_id).collect()
            except PartitionRuntimeError as exc:
                failures[shard_id] = exc
    if failures:
        raise failures[min(failures)]
    return [replies[shard_id] for shard_id in sorted(replies)]


def run_sharded(
    config: dict,
    k: Optional[int] = None,
    *,
    shard_workers: int = 0,
    manifest: Optional[dict] = None,
    sanitize: str = "",
    _crash_shard: Optional[int] = None,
) -> "ShardedResults":
    """Run ``config`` sharded ``k`` ways; returns merged results.

    ``shard_workers=0`` executes all shards in this process (windows
    round-robin); ``shard_workers=k`` starts one process per shard
    (forked or spawned, :func:`_start_method`) and runs the shards'
    windows concurrently.
    ``manifest`` skips re-planning when the caller already has one.
    ``_crash_shard`` is test-only fault injection.
    """
    validate_sharded_scope(config, sanitize)
    if manifest is None:
        if k is None:
            raise PartitionRuntimeError("run_sharded needs k or a manifest")
        from repro.partition import plan_partition

        manifest = plan_partition(Settings(config), k)
    k = manifest["k"]
    if shard_workers not in (0, k):
        raise PartitionRuntimeError(
            f"shard_workers must be 0 (in-process) or k={k}, "
            f"got {shard_workers}"
        )
    lookahead = manifest["lookahead"]["global"]
    if lookahead < 1:
        raise PartitionRuntimeError(
            f"manifest lookahead {lookahead} < 1; cannot window"
        )
    cut_sinks = [entry["sink_shard"] for entry in manifest["cut_channels"]]
    t_start, t_stop = _static_stop_schedule(config)
    max_time = config.get("simulator", {}).get("max_time")
    # Single-process run() executes no event past max_time; no pre-kill
    # window may end beyond it either.
    time_cap = sys.maxsize if max_time is None else max_time + 1
    from repro import factory as _factory
    from repro.models import load_all as _load_all
    from repro.workload.application import Application as _Application

    _load_all()
    app_target_kinds = [
        _factory.lookup(_Application, app["type"]).shard_delivery_target
        for app in config["workload"]["applications"]
    ]

    handles: List[Any] = []
    clean = False
    try:
        started = perf_counter()
        if shard_workers:
            ctx = _mp_get_context(_start_method())
            # Frozen objects are invisible to the collector, so a forked
            # worker's collections never touch -- and copy -- the pages
            # it shares with the coordinator.
            gc.freeze()
            try:
                for shard_id in range(k):
                    handles.append(_ProcessHandle(
                        ctx, handles, config, manifest, shard_id, sanitize,
                        shard_id == _crash_shard,
                    ))
            finally:
                gc.unfreeze()
        else:
            for shard_id in range(k):
                handles.append(_InProcessHandle(
                    config, manifest, shard_id, sanitize,
                    shard_id == _crash_shard,
                ))
        hellos = _gather(handles, _Clock(k))
        windows_started = perf_counter()
        num_terminals = hellos[0]["num_terminals"]
        channel_period = hellos[0]["channel_period"]
        for shard_id, hello in enumerate(hellos):
            if hello["num_terminals"] != num_terminals:
                raise PartitionRuntimeError(
                    f"shard {shard_id} built a different network "
                    f"({hello['num_terminals']} terminals, expected "
                    f"{num_terminals})"
                )

        inboxes: List[List[Record]] = [[] for _ in range(k)]
        delivered_broadcast: List[int] = []
        # Per-application relevant-delivery ticks, counting whatever the
        # class's shard_delivery_target declares (sampled messages for
        # blast, all for pulse) -- mirroring each app's Done test.
        app_ticks: Dict[int, List[int]] = {
            app_id: [] for app_id in range(len(app_target_kinds))
        }
        targets: Optional[Dict[int, Tuple[str, int]]] = None
        kill_tick: Optional[int] = None
        kill_sent = False
        truncated = False
        executed_bound = 0  # ticks < executed_bound fully executed
        windows = 0
        records_exchanged = 0
        drain_rounds = 0
        produced_counts: Dict[int, int] = {}
        clock = _Clock(k)
        compute_s = [0.0] * k
        critical_compute_s = 0.0

        while True:
            kill_arg = None
            if kill_sent:
                end = executed_bound + lookahead
                drain_rounds += 1
                if drain_rounds > MAX_DRAIN_ROUNDS:
                    raise PartitionRuntimeError(
                        f"network failed to drain within {MAX_DRAIN_ROUNDS} "
                        f"post-kill windows; records or events are stuck"
                    )
            elif targets is None:
                if executed_bound >= time_cap:
                    truncated = True
                    break
                end = min(executed_bound + lookahead, t_stop + 1, time_cap)
                if end <= executed_bound:
                    raise PartitionRuntimeError(
                        "stop tick passed without workers reporting "
                        "targets; static schedule mismatch"
                    )
            else:
                remaining = 0
                for app_id, (_, target) in targets.items():
                    remaining += max(0, target - len(app_ticks[app_id]))
                if remaining == 0:
                    kill_tick = t_stop
                    for app_id, (_, target) in targets.items():
                        if target > 0:
                            ticks = sorted(app_ticks[app_id])
                            kill_tick = max(kill_tick, ticks[target - 1])
                    if kill_tick != executed_bound - 1:
                        raise PartitionRuntimeError(
                            f"kill-tick invariant violated: executed through "
                            f"{executed_bound - 1} but the merged deliveries "
                            f"put the kill at {kill_tick}; windowing math or "
                            f"delivery merging is wrong"
                        )
                    kill_arg = kill_tick
                    kill_sent = True
                    end = executed_bound + lookahead
                else:
                    if executed_bound >= time_cap:
                        truncated = True
                        break
                    window = min(
                        lookahead,
                        max(1, -(-remaining // num_terminals)),
                    )
                    end = min(executed_bound + window, time_cap)

            for shard_id, handle in enumerate(handles):
                handle.post((
                    "window", end, inboxes[shard_id], delivered_broadcast,
                    kill_arg,
                ))
            responses = _gather(handles, clock)
            for shard_id, response in enumerate(responses):
                compute_s[shard_id] += response["compute_s"]
            critical_compute_s += max(r["compute_s"] for r in responses)
            windows += 1
            executed_bound = end
            inboxes = [[] for _ in range(k)]
            delivered_broadcast = []
            produced = 0
            for response in responses:
                for record in response["records"]:
                    index = record[1]
                    produced_counts[index] = produced_counts.get(index, 0) + 1
                    inboxes[cut_sinks[index]].append(record)
                    produced += 1
                for msg_id, app_id, tick, sampled in response["delivered"]:
                    delivered_broadcast.append(msg_id)
                    if app_target_kinds[app_id] != "sampled" or sampled:
                        app_ticks[app_id].append(tick)
                if response["start_tick"] is not None \
                        and response["start_tick"] != t_start:
                    raise PartitionRuntimeError(
                        f"worker reported start tick "
                        f"{response['start_tick']}, static schedule says "
                        f"{t_start}"
                    )
                if response["stop_tick"] is not None \
                        and response["stop_tick"] != t_stop:
                    raise PartitionRuntimeError(
                        f"worker reported stop tick {response['stop_tick']}, "
                        f"static schedule says {t_stop}"
                    )
                reported = response.get("targets")
                if reported is not None:
                    if targets is None:
                        targets = reported
                    elif targets != reported:
                        raise PartitionRuntimeError(
                            f"shards disagree on delivery targets: "
                            f"{targets} vs {reported}"
                        )
            records_exchanged += produced
            if kill_sent and produced == 0 \
                    and all(r["pending"] == 0 for r in responses):
                break

        finish_started = perf_counter()
        for handle in handles:
            handle.post(("finish", delivered_broadcast, not truncated))
        reports = _gather(handles, _Clock(k))
        finished = perf_counter()

        # Cross-cut conservation: every record routed must have been
        # injected exactly once at its sink shard.
        injected_counts: Dict[int, int] = {}
        for report in reports:
            for index, count in report["ingress_counts"].items():
                index = int(index)
                injected_counts[index] = injected_counts.get(index, 0) + count
        # On truncation the final round's records were produced but
        # never routed, so the books legitimately differ.
        if not truncated and injected_counts != produced_counts:
            raise PartitionRuntimeError(
                f"cut-record conservation violated: produced "
                f"{produced_counts}, injected {injected_counts}"
            )
        clean = True
        return ShardedResults(
            manifest=manifest,
            mode=handles[0].mode,
            reports=reports,
            windows=windows,
            records_exchanged=records_exchanged,
            lookahead=lookahead,
            num_terminals=num_terminals,
            channel_period=channel_period,
            start_tick=t_start,
            stop_tick=t_stop,
            kill_tick=kill_tick,
            truncated=truncated,
            timing={
                "startup_s": windows_started - started,
                "windows_s": finish_started - windows_started,
                "finish_s": finished - finish_started,
                "windows": windows,
                "peak_in_flight": clock.peak_in_flight,
                "critical_compute_s": critical_compute_s,
                "shards": [
                    {
                        "shard": shard_id,
                        "compute_s": compute_s[shard_id],
                        "serialize_s": reports[shard_id]["serialize_s"],
                        "wait_s": clock.wait_s[shard_id],
                    }
                    for shard_id in range(k)
                ],
            },
        )
    finally:
        # In-process sanitizer suites stack method patches on shared
        # classes; detach strictly in reverse attach order.
        for handle in reversed(handles):
            if handle.suite is not None:
                handle.suite.detach()
        # After a failure the survivors may be mid-window or blocked
        # writing a report nobody will read: terminate, do not ask.
        for handle in handles:
            handle.close(abort=not clean)


# -- merged results ----------------------------------------------------------


class ShardedResults:
    """Merged statistics of a sharded run (mirrors SimulationResults)."""

    def __init__(
        self,
        manifest: dict,
        mode: str,
        reports: List[dict],
        windows: int,
        records_exchanged: int,
        lookahead: int,
        num_terminals: int,
        channel_period: int,
        start_tick: int,
        stop_tick: int,
        kill_tick: Optional[int],
        truncated: bool,
        timing: dict,
    ):
        self._timing = timing
        self.manifest = manifest
        self.mode = mode
        self.reports = reports
        self.windows = windows
        self.records_exchanged = records_exchanged
        self.lookahead = lookahead
        self.num_terminals = num_terminals
        self.channel_period = channel_period
        self.start_tick = start_tick
        self.stop_tick = stop_tick
        self.kill_tick = kill_tick
        self.truncated = truncated
        merged = []
        for report in reports:
            merged.extend(
                MessageRecord.from_dict(item) for item in report["records"]
            )
        merged.sort(key=lambda r: (r.delivered_tick, r.message_id))
        self.records = merged

    @property
    def drained(self) -> bool:
        return all(report["drained"] for report in self.reports)

    @property
    def end_tick(self) -> int:
        return max(report["end_tick"] for report in self.reports)

    @property
    def events_executed(self) -> int:
        """Sum of per-shard executed events.

        Includes the phantom-terminal replay every worker runs, so this
        exceeds the single-process count by roughly (k-1) x the
        generate-event population; compare per-shard rates, not totals.
        """
        return sum(report["events_executed"] for report in self.reports)

    @property
    def delivery_digest(self) -> Optional[str]:
        """Merged DetSan delivery digest (needs ``sanitize="det"``)."""
        if any("delivery_buckets" not in r for r in self.reports):
            return None
        from repro.sanitize.det_san import merge_delivery_digests

        return merge_delivery_digests(
            [report["delivery_buckets"] for report in self.reports]
        )

    # -- merged statistics -------------------------------------------------

    def sampled_records(self) -> List[MessageRecord]:
        return [record for record in self.records if record.sampled]

    def latency(self, kind: str = "message") -> LatencyDistribution:
        return LatencyDistribution.from_records(self.sampled_records(), kind)

    def _window(self) -> int:
        return self.stop_tick - self.start_tick

    def offered_load(self) -> float:
        window = self._window()
        if not window:
            return float("nan")
        # Creation counters are global in every worker; read shard 0.
        flits = sum(
            counters["sampled_flits_created"]
            for counters in self.reports[0]["counters"].values()
        )
        cycles = window / self.channel_period
        return flits / (self.num_terminals * cycles)

    def accepted_load(self) -> float:
        window = self._window()
        if not window:
            return float("nan")
        flits = sum(
            record.num_flits
            for record in self.records
            if self.start_tick <= record.delivered_tick < self.stop_tick
        )
        cycles = window / self.channel_period
        return flits / (self.num_terminals * cycles)

    def delivered_fraction(self) -> float:
        created = sum(
            counters["sampled_created"]
            for counters in self.reports[0]["counters"].values()
        )
        # Delivery counters are local per shard; sum them.
        delivered = sum(
            counters["sampled_delivered"]
            for report in self.reports
            for counters in report["counters"].values()
        )
        return delivered / created if created else float("nan")

    def timing(self) -> dict:
        """Where the host's wall time went (seconds; not simulated time).

        ``startup_s`` runs from the first worker's creation to the last
        hello, ``windows_s`` over the window loop and ``finish_s`` over
        the report gather.  Per shard: ``compute_s`` (ingress
        materialise + ``run_until``), ``serialize_s`` (building and, in
        a worker process, pickling the window replies) and ``wait_s`` (the
        coordinator blocked at the barrier with that shard's reply
        outstanding).  ``critical_compute_s`` sums the slowest shard's
        ``compute_s`` over the windows -- what the barriers cannot hide;
        ``windows_s`` minus it is barrier and IPC cost.
        ``peak_in_flight`` is the most shards ever at work at once: k
        worker processes, 1 in-process.  Kept out of :meth:`summary`, which is
        comparable with a single-process summary.
        """
        return self._timing

    def summary(self) -> Dict[str, object]:
        latency = self.latency()
        return {
            "drained": self.drained,
            "end_tick": self.end_tick,
            "window": [self.start_tick, self.stop_tick],
            "offered_load": self.offered_load(),
            "accepted_load": self.accepted_load(),
            "delivered_fraction": self.delivered_fraction(),
            "latency": latency.summary() if not latency.empty else None,
            "events_executed": self.events_executed,
            "partition": {
                "k": self.manifest["k"],
                "mode": self.mode,
                "workers": len(self.reports),
                "windows": self.windows,
                "lookahead": self.lookahead,
                "records_exchanged": self.records_exchanged,
                "kill_tick": self.kill_tick,
                "shards": [
                    {
                        "shard": report["shard"],
                        "events_executed": report["events_executed"],
                        "messages_delivered": len(report["records"]),
                    }
                    for report in self.reports
                ],
            },
        }
