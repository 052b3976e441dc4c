"""Congestion sensors: delayed visibility, accounting styles (§VI-A/B)."""

import pytest

from repro.config.settings import Settings
from repro.core.component import Component
from repro.core.simulator import Simulator
from repro.router.congestion import (
    GRANULARITY_PORT,
    PENDING_LIMIT,
    SOURCE_BOTH,
    SOURCE_DOWNSTREAM,
    SOURCE_OUTPUT,
    CreditSensor,
)


def make_sensor(sim, latency=1, granularity="vc", source="downstream",
                num_ports=2, num_vcs=2):
    parent = Component(sim, f"host{id(sim) % 1000}_{latency}_{granularity}_{source}")
    settings = Settings.from_dict(
        {"latency": latency, "granularity": granularity, "source": source}
    )
    return CreditSensor(sim, "sensor", parent, num_ports, num_vcs, settings)


@pytest.fixture
def sim():
    return Simulator()


def test_update_not_visible_before_latency(sim):
    sensor = make_sensor(sim, latency=10)
    sensor.init_port(0, downstream_capacity=[8, 8])
    seen = {}

    def record(event):
        sensor.record(SOURCE_DOWNSTREAM, 0, 0, +4)

    def check_early(event):
        seen["early"] = sensor.status(0, 0)

    def check_late(event):
        seen["late"] = sensor.status(0, 0)

    sim.call_at(0, record, epsilon=1)
    sim.call_at(5, check_early)
    sim.call_at(10, check_late)
    sim.run()
    assert seen["early"] == 0.0
    assert seen["late"] == pytest.approx(0.5)


def test_latent_view_is_stale_not_averaged(sim):
    """The sensed value is exactly the old value during the window."""
    sensor = make_sensor(sim, latency=4)
    sensor.init_port(0, downstream_capacity=[10])
    values = []

    def record(event):
        sensor.record(SOURCE_DOWNSTREAM, 0, 0, +5)

    sim.call_at(0, record, epsilon=1)
    for tick in range(1, 8):
        sim.call_at(tick, lambda e: values.append(sensor.status(0, 0)))
    sim.run()
    assert values == [0.0, 0.0, 0.0, pytest.approx(0.5), pytest.approx(0.5),
                      pytest.approx(0.5), pytest.approx(0.5)]


def test_vc_granularity_isolates_vcs(sim):
    sensor = make_sensor(sim, granularity="vc")
    sensor.init_port(0, downstream_capacity=[4, 4])
    out = {}

    def go(event):
        sensor.record(SOURCE_DOWNSTREAM, 0, 0, +4)

    def check(event):
        out["vc0"] = sensor.status(0, 0)
        out["vc1"] = sensor.status(0, 1)

    sim.call_at(0, go, epsilon=1)
    sim.call_at(5, check)
    sim.run()
    assert out["vc0"] == pytest.approx(1.0)
    assert out["vc1"] == 0.0


def test_port_granularity_aggregates_vcs(sim):
    sensor = make_sensor(sim, granularity=GRANULARITY_PORT)
    sensor.init_port(0, downstream_capacity=[4, 4])
    out = {}

    def go(event):
        sensor.record(SOURCE_DOWNSTREAM, 0, 0, +4)

    def check(event):
        # 4 of 8 total slots occupied regardless of which VC is asked.
        out["vc0"] = sensor.status(0, 0)
        out["vc1"] = sensor.status(0, 1)

    sim.call_at(0, go, epsilon=1)
    sim.call_at(5, check)
    sim.run()
    assert out["vc0"] == pytest.approx(0.5)
    assert out["vc1"] == pytest.approx(0.5)


def test_source_selection(sim):
    out = {}

    def build(source):
        sensor = make_sensor(sim, latency=1, source=source)
        sensor.init_port(0, output_capacity=[4, 4],
                         downstream_capacity=[8, 8])
        return sensor

    sensors = {s: build(s) for s in (SOURCE_OUTPUT, SOURCE_DOWNSTREAM, SOURCE_BOTH)}

    def go(event):
        for sensor in sensors.values():
            sensor.record(SOURCE_OUTPUT, 0, 0, +2)      # 2/4 output
            sensor.record(SOURCE_DOWNSTREAM, 0, 0, +2)  # 2/8 downstream

    def check(event):
        for name, sensor in sensors.items():
            out[name] = sensor.status(0, 0)

    sim.call_at(0, go, epsilon=1)
    sim.call_at(5, check)
    sim.run()
    assert out[SOURCE_OUTPUT] == pytest.approx(0.5)
    assert out[SOURCE_DOWNSTREAM] == pytest.approx(0.25)
    assert out[SOURCE_BOTH] == pytest.approx(4 / 12)


def test_infinite_capacity_reference(sim):
    sensor = make_sensor(sim, source=SOURCE_OUTPUT)
    sensor.init_port(0, output_capacity=[None, None])
    out = {}

    def go(event):
        sensor.record(SOURCE_OUTPUT, 0, 0, +32)

    def check(event):
        out["value"] = sensor.status(0, 0)

    sim.call_at(0, go, epsilon=1)
    sim.call_at(5, check)
    sim.run()
    # 32 flits against the 64-flit reference depth.
    assert out["value"] == pytest.approx(0.5)


def test_uninitialized_key_rejected(sim):
    sensor = make_sensor(sim)
    with pytest.raises(KeyError):
        sensor.record(SOURCE_DOWNSTREAM, 1, 0, +1)


def test_unknown_settings_rejected(sim):
    with pytest.raises(ValueError):
        make_sensor(sim, granularity="bogus")
    with pytest.raises(ValueError):
        make_sensor(sim, source="bogus")


def test_raw_occupancy(sim):
    sensor = make_sensor(sim, latency=2)
    sensor.init_port(0, downstream_capacity=[4])
    out = {}

    def go(event):
        sensor.record(SOURCE_DOWNSTREAM, 0, 0, +3)

    sim.call_at(0, go, epsilon=1)
    sim.call_at(5, lambda e: out.update(v=sensor.raw_occupancy(SOURCE_DOWNSTREAM, 0, 0)))
    sim.run()
    assert out["v"] == 3


# -- the bounded FIFO ----------------------------------------------------------


def test_router_resolves_its_sensor_slots_at_finalize(monkeypatch):
    """Routers append to the delay line without a per-record check, so
    a slot the sensor never declared fails when the network is built,
    with record()'s KeyError, instead of corrupting a neighbour slot."""
    from repro import Simulation
    from tests.conftest import small_torus_config

    monkeypatch.setattr(CreditSensor, "init_port", lambda self, port, **_: None)
    with pytest.raises(KeyError, match="record for uninitialized"):
        Simulation(Settings.from_dict(small_torus_config()))


def test_unqueried_sensor_stays_bounded_over_a_dor_run():
    """Dimension-order routing never queries the sensor; its FIFO must
    not keep one entry per recorded flit-hop for the whole run."""
    from tests.conftest import run_config, small_torus_config

    simulation, results = run_config(small_torus_config())
    assert results.drained
    routers = simulation.network.routers
    hops = sum(c.flits_carried for c in simulation.network.flit_channels)
    for router in routers:
        sensor = router.sensor
        # Past the limit only entries younger than the latency remain:
        # at most one flit out and one credit in per port per tick.
        bound = PENDING_LIMIT + 2 * sensor.num_ports * max(sensor.latency, 1)
        assert len(sensor._pending) <= bound
    # Not vacuous: the run recorded far more than the FIFOs now hold.
    assert hops > 20 * len(routers) * PENDING_LIMIT


@pytest.mark.parametrize("latency", [0, 1, 7])
@pytest.mark.parametrize("granularity", ["vc", "port"])
@pytest.mark.parametrize("source", [SOURCE_OUTPUT, SOURCE_DOWNSTREAM, SOURCE_BOTH])
def test_early_folding_matches_a_drain_on_query_reference(
        sim, latency, granularity, source):
    """Seeded random record/query program against an oracle that keeps
    every record and evaluates a query from the whole log: folding due
    entries from ``record()`` must never change a visible value."""
    import random

    rng = random.Random(f"{latency}/{granularity}/{source}")
    ports, vcs = 3, 2
    sensor = make_sensor(sim, latency=latency, granularity=granularity,
                         source=source, num_ports=ports, num_vcs=vcs)
    capacity = {}
    for port in range(ports):
        out_caps = [rng.choice([None, 4, 8]) for _ in range(vcs)]
        down_caps = [rng.choice([6, 16]) for _ in range(vcs)]
        sensor.init_port(port, output_capacity=out_caps,
                         downstream_capacity=down_caps)
        for vc in range(vcs):
            capacity[(SOURCE_OUTPUT, port, vc)] = out_caps[vc]
            capacity[(SOURCE_DOWNSTREAM, port, vc)] = down_caps[vc]
    tracked = [SOURCE_OUTPUT, SOURCE_DOWNSTREAM] if source == SOURCE_BOTH \
        else [source]
    log = {key: [] for key in capacity}  # key -> (due, delta): never folded

    def visible(key, now):
        return sum(delta for due, delta in log[key] if due <= now)

    def expected_status(port, vc, now):
        occupancy = total = 0.0
        for src in tracked:
            for v in (range(vcs) if granularity == "port" else [vc]):
                occupancy += visible((src, port, v), now)
                cap = capacity[(src, port, v)]
                total += 64.0 if cap is None else cap
        return occupancy / total

    checked = []
    longest = [0]

    def step(event):
        now = sim.tick
        # Mostly quiet ticks, some bursts well past the limit, and long
        # stretches without any query so the FIFO has to fold by itself.
        for _ in range(rng.choice([0, 1, 3, 3 * PENDING_LIMIT])):
            src = rng.choice([SOURCE_OUTPUT, SOURCE_DOWNSTREAM])
            key = (src, rng.randrange(ports), rng.randrange(vcs))
            delta = rng.choice([+1, -1])
            sensor.record(*key, delta)
            if src in tracked:
                log[key].append((now + latency, delta))
        longest[0] = max(longest[0], len(sensor._pending))
        if rng.random() < 0.15:
            for _ in range(rng.randrange(1, 6)):
                port, vc = rng.randrange(ports), rng.randrange(vcs)
                assert sensor.status(port, vc) == expected_status(port, vc, now)
                src = rng.choice([SOURCE_OUTPUT, SOURCE_DOWNSTREAM])
                want = visible((src, port, vc), now) if src in tracked else 0
                assert sensor.raw_occupancy(src, port, vc) == want
                checked.append(now)

    for tick in range(400):
        sim.call_at(tick, step, epsilon=1)
    sim.run()
    recorded = sum(len(entries) for entries in log.values())
    assert len(checked) > 50 and recorded > 20 * PENDING_LIMIT
    # Bursts within one latency cannot be folded yet; everything older is.
    assert longest[0] <= PENDING_LIMIT + 3 * PENDING_LIMIT * max(latency, 1)
