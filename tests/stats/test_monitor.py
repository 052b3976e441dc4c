"""The progress monitor."""

import pytest

from repro import Settings, Simulation
from tests.conftest import small_torus_config


def test_monitor_samples_on_period():
    config = small_torus_config()
    config["simulator"]["monitor"] = {"period": 500}
    simulation = Simulation(Settings.from_dict(config))
    simulation.run(max_time=100_000)
    monitor = simulation.monitor
    assert monitor is not None
    assert len(monitor.history) >= 3
    ticks = [s.tick for s in monitor.history]
    assert ticks == sorted(ticks)
    assert all(t % 500 == 0 for t in ticks)


def test_monitor_counters_monotone():
    config = small_torus_config()
    config["simulator"]["monitor"] = {"period": 400}
    simulation = Simulation(Settings.from_dict(config))
    simulation.run(max_time=100_000)
    history = simulation.monitor.history
    events = [s.executed_events for s in history]
    flits = [s.flits_ejected for s in history]
    assert events == sorted(events)
    assert flits == sorted(flits)
    assert simulation.monitor.event_rate() > 0
    assert simulation.monitor.delivery_rate() > 0


def test_monitor_does_not_prevent_drain():
    """The monitor must stop sampling once it is the only event source,
    or the queue would never empty."""
    config = small_torus_config()
    config["simulator"]["monitor"] = {"period": 100}
    simulation = Simulation(Settings.from_dict(config))
    results = simulation.run(max_time=200_000)
    assert results.drained
    assert simulation.simulator.queue_size <= 1  # at most the last sample


def test_cancelled_events_do_not_keep_the_monitor_sampling():
    """Regression: a queue holding only lazily-cancelled entries (every
    blast terminal's next injection after ``on_kill``) is not work; the
    monitor used to test ``queue_size``, kept sampling until the dead
    entry's tick and stretched the reported end tick."""
    from types import SimpleNamespace

    from repro.core.simulator import Simulator
    from repro.stats.monitor import ProgressMonitor

    simulator = Simulator()
    network = SimpleNamespace(interfaces=[])
    monitor = ProgressMonitor(simulator, "monitor", network, 100)
    simulator.call_at(150, lambda e: None)
    simulator.call_at(1_000_000, lambda e: None).cancel()
    end = simulator.run()
    # Samples at 100 (work pending at 150) and 200 (nothing live left).
    assert [sample.tick for sample in monitor.history] == [100, 200]
    assert end.tick == 200
    assert simulator.pending_events == 0


def test_progress_line_reports_flits_per_wall_second(capsys):
    """Engine events are phases now (thousands per run, not hundreds of
    thousands), so the printed rate is flits ejected per wall second;
    the engine-event count stays in the sample."""
    config = small_torus_config()
    config["simulator"]["monitor"] = {"period": 500, "print": True}
    simulation = Simulation(Settings.from_dict(config))
    simulation.run(max_time=100_000)
    lines = capsys.readouterr().out.splitlines()
    history = simulation.monitor.history
    assert len(lines) == len(history)
    last = history[-1]
    assert lines[-1].startswith(
        f"[progress] tick={last.tick} events={last.executed_events} "
        f"flits={last.flits_ejected} ("
    )
    assert lines[-1].endswith("k flits/s)")
    assert "events/s" not in lines[-1]


def test_no_monitor_by_default():
    simulation = Simulation(Settings.from_dict(small_torus_config()))
    assert simulation.monitor is None


def test_monitor_callback():
    config = small_torus_config()
    seen = []
    from repro.stats.monitor import ProgressMonitor

    simulation = Simulation(Settings.from_dict(config))
    ProgressMonitor(simulation.simulator, "extra_monitor",
                    simulation.network, 1000, callback=seen.append)
    simulation.run(max_time=100_000)
    assert seen
    assert seen[0].tick == 1000


def test_invalid_period():
    from repro.core.simulator import Simulator
    from repro.stats.monitor import ProgressMonitor

    simulation = Simulation(Settings.from_dict(small_torus_config()))
    with pytest.raises(ValueError):
        ProgressMonitor(simulation.simulator, "bad_monitor",
                        simulation.network, 0)
