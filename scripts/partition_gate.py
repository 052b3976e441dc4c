#!/usr/bin/env python
"""CI gate: every builtin config must partition cleanly at k=4.

For each builtin benchmark config this gate plans a 4-way partition,
runs the full P-rule layer over the planned manifest, and fails on:

* any error-severity P- or S-finding not in EXPECTED_UNSAFE (an
  unsound partition, or an unexpected shard-unsafe model verdict),
* a global lookahead below 1 tick (the partition would be useless),
* a manifest that is not byte-identical when planned twice (the
  determinism contract of docs/PARTITIONING.md),
* a SARIF export that is structurally invalid,
* a sharded k=2 run whose merged delivery digest differs from the
  single-process run of the same config -- the execution-equivalence
  contract of the PDES runtime -- once with in-process workers (folded
  Clos) and once with two worker processes (small torus), where
  ``timing()["peak_in_flight"]`` must also be 2 (the deterministic guard
  that a later edit cannot quietly re-serialise the workers) and the
  reported mode must be the start method the runtime picks here
  (``fork`` on Linux),
* a shard-purity classification of any builtin model class that
  deviates from EXPECTED_CLASSIFICATIONS (a silent analyzer or model
  regression either way: a model going unsafe breaks sharding, a
  hazard going undetected breaks the analyzer).

Run directly (``python scripts/partition_gate.py``) or via
``scripts/ci_check.sh``.
"""

from __future__ import annotations

import sys

K = 4

#: Builtin configs that select a shard-unsafe model on purpose, and the
#: S-rule the gate expects to fire.  credit_accounting routes with
#: hyperx_ugal, whose hop_count-adaptive VC selection the shard-purity
#: analyzer rejects; its partition *plan* is still produced and checked.
EXPECTED_UNSAFE = {
    "credit_accounting_config": {"S001"},
}

#: Derived verdict expected for every builtin model class.  Keyed
#: (kind, registered name); values are shard_rules classifications.
EXPECTED_CLASSIFICATIONS = {
    ("application", "blast"): "conditional",
    ("application", "pulse"): "shard-safe",
    ("application", "request_reply"): "shard-unsafe",
    ("routing", "chain"): "shard-safe",
    ("routing", "clos_adaptive"): "shard-safe",
    ("routing", "clos_deterministic"): "shard-safe",
    ("routing", "dragonfly_minimal"): "shard-unsafe",
    ("routing", "dragonfly_ugal"): "shard-unsafe",
    ("routing", "dragonfly_valiant"): "shard-unsafe",
    ("routing", "hyperx_dimension_order"): "shard-safe",
    ("routing", "hyperx_ugal"): "shard-unsafe",
    ("routing", "hyperx_valiant"): "shard-unsafe",
    ("routing", "torus_dimension_order"): "shard-safe",
    ("routing", "torus_minimal_adaptive"): "shard-safe",
    ("router", "input_output_queued"): "shard-safe",
    ("router", "input_queued"): "shard-safe",
    ("router", "output_queued"): "shard-safe",
    ("interface", "standard"): "shard-safe",
}


def classification_sweep() -> list:
    """Classify every registered builtin model; diff vs expectations."""
    from repro.lint.shard_rules import classify_registered

    problems = []
    actual = {
        (kind, name): verdict
        for kind, verdicts in classify_registered().items()
        for name, verdict in verdicts.items()
    }
    for key, expected in sorted(EXPECTED_CLASSIFICATIONS.items()):
        verdict = actual.pop(key, None)
        if verdict is None:
            problems.append(f"{key[0]} {key[1]!r}: no longer registered")
        elif verdict.classification != expected:
            evidence = "; ".join(h.render() for h in verdict.hazards)
            problems.append(
                f"{key[0]} {key[1]!r}: expected {expected}, analyzer "
                f"says {verdict.classification}"
                + (f" ({evidence})" if evidence else "")
            )
    for (kind, name), verdict in sorted(actual.items()):
        if verdict.classification != "shard-safe":
            problems.append(
                f"new {kind} {name!r} classifies {verdict.classification} "
                f"and is missing from EXPECTED_CLASSIFICATIONS"
            )
    return problems


def check_sarif(log: dict) -> list:
    """Minimal structural validation of a SARIF 2.1.0 log."""
    problems = []
    if log.get("version") != "2.1.0":
        problems.append(f"sarif version is {log.get('version')!r}")
    runs = log.get("runs")
    if not isinstance(runs, list) or len(runs) != 1:
        problems.append("sarif log must carry exactly one run")
        return problems
    run = runs[0]
    driver = run.get("tool", {}).get("driver", {})
    if driver.get("name") != "sslint":
        problems.append("sarif driver name must be 'sslint'")
    declared = {rule.get("id") for rule in driver.get("rules", [])}
    for result in run.get("results", []):
        if result.get("ruleId") not in declared:
            problems.append(
                f"result rule {result.get('ruleId')!r} not declared"
            )
        if result.get("level") not in ("error", "warning", "note"):
            problems.append(f"bad result level {result.get('level')!r}")
        if not result.get("message", {}).get("text"):
            problems.append("result without message text")
        prints = result.get("partialFingerprints", {})
        if not any(k.startswith("sslintFingerprint/") for k in prints):
            problems.append("result without an sslint fingerprint")
    return problems


def smoke_mode(shard_workers: int) -> str:
    """The ``ShardedResults.mode`` a smoke run must report."""
    from repro.partition.runtime import _start_method

    return _start_method() if shard_workers else "in-process"


def runtime_smoke(config: dict, shard_workers: int) -> list:
    """Sharded k=2 execution must reproduce the single-process digest."""
    import itertools

    import repro.net.message as message_mod
    import repro.net.packet as packet_mod
    from repro.config.settings import Settings
    from repro.net.packet import preserve_packet_ids
    from repro.partition.runtime import PartitionRuntimeError, run_sharded
    from repro.sanitize import attach_sanitizers
    from repro.sim import Simulation

    max_time = 2_000
    # Shard workers count ids from zero like a fresh process; the
    # reference run must too (packet ids feed routing decisions).
    with preserve_packet_ids():
        packet_mod._global_packet_ids = itertools.count(0)
        message_mod._global_message_ids = itertools.count(0)
        simulation = Simulation(Settings.from_dict(config))
        with attach_sanitizers(simulation, "det") as suite:
            results = simulation.run(max_time=max_time)
            suite.finish()
            digest = suite.report()["det"]["delivery_digest"]
    if not results.drained:
        return ["single-process reference run did not drain"]
    config.setdefault("simulator", {})["max_time"] = max_time
    try:
        sharded = run_sharded(
            config, k=2, shard_workers=shard_workers, sanitize="det"
        )
    except PartitionRuntimeError as exc:
        return [f"sharded run failed: {exc}"]
    problems = []
    if not sharded.drained:
        problems.append("sharded run did not drain")
    if sharded.delivery_digest != digest:
        problems.append(
            f"sharded delivery digest {sharded.delivery_digest} != "
            f"single-process {digest}"
        )
    mode = smoke_mode(shard_workers)
    if sharded.mode != mode:
        problems.append(f"ran in mode {sharded.mode!r}, expected {mode!r}")
    in_flight = sharded.timing()["peak_in_flight"]
    if in_flight != (shard_workers or 1):
        problems.append(
            f"peak_in_flight is {in_flight}, expected {shard_workers or 1}: "
            f"the shards are not being run "
            f"{'concurrently' if shard_workers else 'round-robin'}"
        )
    return problems


def main() -> int:
    from repro import configs as builders
    from repro.config.settings import Settings
    from repro.lint import lint_partition
    from repro.lint.sarif import to_sarif
    from repro.partition import to_canonical_json

    names = sorted(
        attr for attr in dir(builders)
        if attr.endswith("_config") and callable(getattr(builders, attr))
    )
    failures = 0
    reports = []
    for name in names:
        config = getattr(builders, name)()
        report, manifest = lint_partition(
            Settings.from_dict(config), k=K, subject=f"builtin:{name}"
        )
        reports.append(report)
        problems = []
        expected_rules = EXPECTED_UNSAFE.get(name, set())
        unexpected = [
            f for f in report.errors if f.rule_id not in expected_rules
        ]
        missing = expected_rules - {f.rule_id for f in report.errors}
        problems.extend(f.render() for f in unexpected)
        problems.extend(
            f"expected an error-severity {rule} finding, got none"
            for rule in sorted(missing)
        )
        if manifest is None:
            problems.append("no manifest produced")
        else:
            lookahead = manifest["lookahead"]["global"]
            if lookahead is None or lookahead < 1:
                problems.append(f"global lookahead is {lookahead!r}")
            _, again = lint_partition(
                Settings.from_dict(getattr(builders, name)()), k=K
            )
            if to_canonical_json(manifest) != to_canonical_json(again):
                problems.append("manifest is not deterministic")
        if problems:
            failures += 1
            print(f"FAIL {name} (k={K}):")
            for problem in problems:
                print(f"  {problem}")
        else:
            cut = len(manifest["cut_channels"])
            note = (
                f", expected {'/'.join(sorted(expected_rules))} present"
                if expected_rules else ""
            )
            print(
                f"ok   {name}: k={K}, {cut} cut channel(s), "
                f"lookahead {manifest['lookahead']['global']}{note}"
            )

    sweep_problems = classification_sweep()
    if sweep_problems:
        failures += 1
        print("FAIL builtin shard-purity classifications:")
        for problem in sweep_problems:
            print(f"  {problem}")
    else:
        count = len(EXPECTED_CLASSIFICATIONS)
        print(f"ok   shard-purity: {count} builtin model classes match "
              f"expected verdicts")

    sarif_problems = check_sarif(to_sarif(reports))
    if sarif_problems:
        failures += 1
        print("FAIL sarif export:")
        for problem in sarif_problems:
            print(f"  {problem}")
    else:
        print("ok   sarif export validates")

    smokes = [
        ("in-process", 0, builders.latent_congestion_config(
            injection_rate=0.15, warmup=50, window=150, half_radix=2)),
        ("2 worker processes", 2, builders.flow_control_config(
            message_size=4, injection_rate=0.2, warmup=30, window=70)),
    ]
    for label, shard_workers, config in smokes:
        smoke_problems = runtime_smoke(config, shard_workers)
        if smoke_problems:
            failures += 1
            print(f"FAIL sharded runtime smoke (k=2, {label}):")
            for problem in smoke_problems:
                print(f"  {problem}")
        else:
            print(f"ok   sharded runtime smoke (k=2, {label}): digest "
                  f"matches single-process, peak_in_flight "
                  f"{shard_workers or 1}, mode {smoke_mode(shard_workers)}")

    if failures:
        print(f"partition gate: {failures} failure(s)")
        return 1
    print(f"partition gate: {len(names)} config(s) clean at k={K}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
