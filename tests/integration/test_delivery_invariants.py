"""End-to-end invariants across every topology / router / routing combo.

For each configuration the network must:

* drain completely (every sampled message delivered),
* conserve flits (injected == ejected),
* restore every credit and empty every buffer (quiescence),
* deliver in order per packet and to the right destination (checked
  continuously by the interfaces, §IV-D -- a violation raises).
"""

import pytest

from tests.conftest import (
    assert_flit_conservation,
    assert_network_quiescent,
    run_config,
)


def base_workload(rate=0.15, size=2, traffic="uniform_random"):
    return {
        "applications": [{
            "type": "blast",
            "injection_rate": rate,
            "warmup_duration": 300,
            "generate_duration": 1200,
            "traffic": {"type": traffic},
            "message_size": {"type": "constant", "size": size},
        }]
    }


CONFIGS = {
    "torus_iq_dor": {
        "network": {
            "topology": "torus",
            "dimension_widths": [4, 4],
            "concentration": 1,
            "num_vcs": 2,
            "channel_latency": 2,
            "router": {"architecture": "input_queued",
                       "input_queue_depth": 16, "core_latency": 2},
            "interface": {"max_packet_size": 8},
            "routing": {"algorithm": "torus_dimension_order"},
        },
        "workload": base_workload(),
    },
    "torus_3d_adaptive": {
        "network": {
            "topology": "torus",
            "dimension_widths": [3, 3, 3],
            "concentration": 1,
            "num_vcs": 4,
            "channel_latency": 1,
            "router": {"architecture": "input_queued",
                       "input_queue_depth": 8, "core_latency": 1},
            "interface": {"max_packet_size": 4},
            "routing": {"algorithm": "torus_minimal_adaptive"},
        },
        "workload": base_workload(),
    },
    "clos_oq_adaptive": {
        "network": {
            "topology": "folded_clos",
            "half_radix": 4, "num_levels": 2,
            "num_vcs": 1,
            "channel_latency": 4,
            "router": {"architecture": "output_queued",
                       "input_queue_depth": 32, "core_latency": 4,
                       "output_queue_depth": 64,
                       "congestion_sensor": {"latency": 2,
                                             "source": "output",
                                             "granularity": "port"}},
            "interface": {"max_packet_size": 1, "ejection_buffer_size": 32},
            "routing": {"algorithm": "clos_adaptive"},
        },
        "workload": base_workload(size=1, traffic="uniform_to_root"),
    },
    "clos_oq_deterministic": {
        "network": {
            "topology": "folded_clos",
            "half_radix": 2, "num_levels": 3,
            "num_vcs": 1,
            "channel_latency": 2,
            "router": {"architecture": "output_queued",
                       "input_queue_depth": 16, "core_latency": 2,
                       "output_queue_depth": None,
                       "congestion_sensor": {"latency": 1,
                                             "source": "output"}},
            "interface": {"max_packet_size": 2},
            "routing": {"algorithm": "clos_deterministic"},
        },
        "workload": base_workload(),
    },
    "hyperx_ioq_ugal": {
        "network": {
            "topology": "hyperx",
            "dimension_widths": [8], "concentration": 4,
            "num_vcs": 2,
            "channel_latency": 4,
            "channel_period": 2,
            "router": {"architecture": "input_output_queued",
                       "input_queue_depth": 16, "core_latency": 2,
                       "output_queue_depth": 32,
                       "congestion_sensor": {"latency": 2,
                                             "source": "both",
                                             "granularity": "port"}},
            "interface": {"max_packet_size": 1},
            "routing": {"algorithm": "hyperx_ugal", "ugal_bias": 0.0},
        },
        "workload": base_workload(size=1, traffic="bit_complement"),
    },
    "hyperx_2d_valiant": {
        "network": {
            "topology": "hyperx",
            "dimension_widths": [3, 3], "concentration": 1,
            "num_vcs": 4,
            "channel_latency": 2,
            "router": {"architecture": "input_queued",
                       "input_queue_depth": 8, "core_latency": 1},
            "interface": {"max_packet_size": 2},
            "routing": {"algorithm": "hyperx_valiant"},
        },
        "workload": base_workload(traffic="tornado"),
    },
    "dragonfly_minimal": {
        "network": {
            "topology": "dragonfly",
            "group_size": 4, "global_links": 1, "concentration": 1,
            "num_vcs": 3,
            "channel_latency": 2,
            "global_latency": 6,
            "router": {"architecture": "input_queued",
                       "input_queue_depth": 8, "core_latency": 1},
            "interface": {"max_packet_size": 2},
            "routing": {"algorithm": "dragonfly_minimal"},
        },
        "workload": base_workload(),
    },
    "dragonfly_valiant": {
        "network": {
            "topology": "dragonfly",
            "group_size": 4, "global_links": 1, "concentration": 1,
            "num_vcs": 5,
            "channel_latency": 2,
            "global_latency": 6,
            "router": {"architecture": "input_queued",
                       "input_queue_depth": 8, "core_latency": 1},
            "interface": {"max_packet_size": 2},
            "routing": {"algorithm": "dragonfly_valiant"},
        },
        "workload": base_workload(),
    },
    "dragonfly_ugal": {
        "network": {
            "topology": "dragonfly",
            "group_size": 2, "global_links": 2, "concentration": 2,
            "num_vcs": 5,
            "channel_latency": 2,
            "router": {"architecture": "input_queued",
                       "input_queue_depth": 8, "core_latency": 1,
                       "congestion_sensor": {"latency": 1,
                                             "source": "downstream",
                                             "granularity": "port"}},
            "interface": {"max_packet_size": 2},
            "routing": {"algorithm": "dragonfly_ugal"},
        },
        "workload": base_workload(rate=0.1),
    },
    "parking_lot_age_based": {
        "network": {
            "topology": "parking_lot",
            "length": 4, "concentration": 1,
            "num_vcs": 1,
            "channel_latency": 1,
            "router": {"architecture": "input_queued",
                       "input_queue_depth": 8, "core_latency": 1,
                       "crossbar_scheduler": {
                           "arbiter": {"type": "age_based"}}},
            "interface": {"max_packet_size": 2},
            "routing": {"algorithm": "chain"},
        },
        "workload": base_workload(rate=0.1, traffic="all_to_one"),
    },
    "torus_ioq_wta": {
        "network": {
            "topology": "torus",
            "dimension_widths": [4], "concentration": 2,
            "num_vcs": 2,
            "channel_latency": 2,
            "router": {"architecture": "input_output_queued",
                       "input_queue_depth": 16, "core_latency": 2,
                       "output_queue_depth": 16,
                       "crossbar_scheduler": {
                           "flow_control": "winner_take_all"}},
            "interface": {"max_packet_size": 8},
            "routing": {"algorithm": "torus_dimension_order"},
        },
        "workload": base_workload(size=6),
    },
    "torus_iq_packet_buffer": {
        "network": {
            "topology": "torus",
            "dimension_widths": [4], "concentration": 2,
            "num_vcs": 2,
            "channel_latency": 2,
            "router": {"architecture": "input_queued",
                       "input_queue_depth": 16, "core_latency": 2,
                       "crossbar_scheduler": {
                           "flow_control": "packet_buffer"}},
            "interface": {"max_packet_size": 8},
            "routing": {"algorithm": "torus_dimension_order"},
        },
        "workload": base_workload(size=6),
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_invariants(name):
    config = {"simulator": {"seed": 23}}
    config.update(CONFIGS[name])
    simulation, results = run_config(config, max_time=400_000)
    assert results.drained, f"{name}: did not drain"
    assert results.delivered_fraction() == 1.0
    assert_flit_conservation(simulation.network)
    assert_network_quiescent(simulation.network)
    latency = results.latency()
    assert not latency.empty
    assert latency.minimum() > 0
