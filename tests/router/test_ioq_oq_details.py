"""Architecture-specific details of the OQ and IOQ routers."""

import pytest

from repro import Settings, Simulation
from repro.router.congestion import SOURCE_OUTPUT
from tests.conftest import run_config


def clos_oq_config(sensor_latency=1, depth=64):
    return {
        "simulator": {"seed": 13},
        "network": {
            "topology": "folded_clos",
            "half_radix": 2, "num_levels": 2,
            "num_vcs": 1,
            "channel_latency": 2,
            "router": {"architecture": "output_queued",
                       "input_queue_depth": 16,
                       "core_latency": 3,
                       "output_queue_depth": depth,
                       "congestion_sensor": {"latency": sensor_latency,
                                             "source": "output",
                                             "granularity": "port"}},
            "interface": {"max_packet_size": 1},
            "routing": {"algorithm": "clos_adaptive"},
        },
        "workload": {"applications": [{
            "type": "blast",
            "injection_rate": 0.3,
            "warmup_duration": 200,
            "generate_duration": 1000,
            "traffic": {"type": "uniform_to_root"},
            "message_size": {"type": "constant", "size": 1},
        }]},
    }


class TestOutputQueued:
    def test_sensor_tracks_committed_occupancy(self):
        """During the run the sensor's output-source occupancy stays
        within [0, capacity] and ends at zero."""
        simulation, results = run_config(clos_oq_config())
        assert results.drained
        for router in simulation.network.routers:
            for port in range(router.num_ports):
                if not router.port_is_wired(port):
                    continue
                occupancy = router.sensor.raw_occupancy(SOURCE_OUTPUT, port, 0)
                assert occupancy == 0, "queues must be empty after drain"

    def test_committed_counters_zero_after_drain(self):
        simulation, results = run_config(clos_oq_config())
        for router in simulation.network.routers:
            for port in range(router.num_ports):
                for vc in range(router.num_vcs):
                    assert router.output_queue_occupancy(port, vc) == 0

    def test_invalid_output_queue_depth(self):
        config = clos_oq_config(depth=0)
        with pytest.raises(Exception):
            Simulation(Settings.from_dict(config))

    def test_multiple_inputs_enqueue_same_output_in_one_cycle(self):
        """The idealized OQ property: with all-to-one single-flit
        traffic, an output queue can gain more than one flit per cycle
        (no scheduling conflicts, §IV-C)."""
        config = {
            "simulator": {"seed": 3},
            "network": {
                "topology": "parking_lot",
                "length": 3, "concentration": 2,
                "num_vcs": 1,
                "channel_latency": 1,
                "router": {"architecture": "output_queued",
                           "input_queue_depth": 8,
                           "core_latency": 1,
                           "output_queue_depth": None},
                "interface": {"max_packet_size": 1},
                "routing": {"algorithm": "chain"},
            },
            "workload": {"applications": [{
                "type": "blast",
                "injection_rate": 1.0,
                "warmup_duration": 100,
                "generate_duration": 500,
                "traffic": {"type": "all_to_one"},
                "message_size": {"type": "constant", "size": 1},
            }]},
        }
        simulation, results = run_config(config, max_time=30_000)
        # Offered 6 flits/cycle into one terminal (capacity 1): with
        # infinite OQ queues everything is absorbed and later drained.
        assert results.drained
        assert results.delivered_fraction() == 1.0


class TestInputOutputQueued:
    def _config(self, channel_period=2):
        return {
            "simulator": {"seed": 13},
            "network": {
                "topology": "hyperx",
                "dimension_widths": [4], "concentration": 2,
                "num_vcs": 2,
                "channel_latency": 4,
                "channel_period": channel_period,
                "router": {"architecture": "input_output_queued",
                           "input_queue_depth": 16,
                           "core_latency": 2,
                           "output_queue_depth": 16},
                "interface": {"max_packet_size": 4},
                "routing": {"algorithm": "hyperx_dimension_order"},
            },
            "workload": {"applications": [{
                "type": "blast",
                "injection_rate": 0.4,
                "warmup_duration": 400,
                "generate_duration": 2000,
                "traffic": {"type": "uniform_random"},
                "message_size": {"type": "constant", "size": 4},
            }]},
        }

    def test_speedup_delivers_at_rate(self):
        _sim, results = run_config(self._config(channel_period=2))
        assert results.drained
        assert results.accepted_load() == pytest.approx(0.4, abs=0.05)

    def test_internal_credits_restored_after_drain(self):
        simulation, results = run_config(self._config())
        assert results.drained
        for router in simulation.network.routers:
            for port in range(router.num_ports):
                tracker = router._oq_credits[port]
                for vc in range(tracker.num_vcs):
                    assert tracker.available(vc) == tracker.capacity(vc)

    def test_queued_counts_zero_after_drain(self):
        simulation, results = run_config(self._config())
        for router in simulation.network.routers:
            assert all(count == 0 for count in router._queued_count)
            assert not router._core_fifo
