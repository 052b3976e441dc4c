"""Golden delivery digests for the output-queued router and its
congestion sensor.

The bench pins one Clos/OQ configuration (1 VC, sensor latency 1, port
granularity, ``output`` source).  These cells cover the branches it
does not: a small folded Clos of OQ routers under adaptive uprouting,
with finite output queues, over ``num_vcs`` in {1, 2} x sensor
``latency`` in {0, 1, 8} x ``granularity`` in {vc, port} x ``source``
in {output, downstream, both}, plus one cell with 4-flit messages
(wormhole ownership across cycles).  Adaptive routing reads the sensor
on every up-route, so a change in what the sensor shows at which tick
changes the delivery digest.  The constants were recorded at commit
7241ab4, before the OQ hot path was rewritten as flat per-phase code.
"""

from __future__ import annotations

import pytest

from repro import Settings, Simulation
from repro.configs import latent_congestion_config
from repro.sanitize import attach_sanitizers

#: (num_vcs, sensor latency, granularity, source) -> (digest, deliveries)
PINS = {
    (1, 0, "vc", "output"): ("598cda83", 6624),
    (1, 0, "vc", "downstream"): ("6e24d4a5", 6852),
    (1, 0, "vc", "both"): ("0b106ffb", 6624),
    (1, 0, "port", "output"): ("598cda83", 6624),
    (1, 0, "port", "downstream"): ("6e24d4a5", 6852),
    (1, 0, "port", "both"): ("0b106ffb", 6624),
    (1, 1, "vc", "output"): ("53c47848", 6540),
    (1, 1, "vc", "downstream"): ("324bee8f", 6792),
    (1, 1, "vc", "both"): ("221c35e4", 6576),
    (1, 1, "port", "output"): ("53c47848", 6540),
    (1, 1, "port", "downstream"): ("324bee8f", 6792),
    (1, 1, "port", "both"): ("221c35e4", 6576),
    (1, 8, "vc", "output"): ("dfb265f0", 6912),
    (1, 8, "vc", "downstream"): ("c4f96bf8", 6792),
    (1, 8, "vc", "both"): ("77da6175", 6852),
    (1, 8, "port", "output"): ("dfb265f0", 6912),
    (1, 8, "port", "downstream"): ("c4f96bf8", 6792),
    (1, 8, "port", "both"): ("77da6175", 6852),
    (2, 0, "vc", "output"): ("38d7ad97", 6624),
    (2, 0, "vc", "downstream"): ("73ecb51c", 6852),
    (2, 0, "vc", "both"): ("65a05212", 6624),
    (2, 0, "port", "output"): ("38d7ad97", 6624),
    (2, 0, "port", "downstream"): ("73ecb51c", 6852),
    (2, 0, "port", "both"): ("65a05212", 6624),
    (2, 1, "vc", "output"): ("d06e1c9e", 6540),
    (2, 1, "vc", "downstream"): ("7d06cd2c", 6792),
    (2, 1, "vc", "both"): ("2e4bff5a", 6576),
    (2, 1, "port", "output"): ("d06e1c9e", 6540),
    (2, 1, "port", "downstream"): ("da5705ca", 6792),
    (2, 1, "port", "both"): ("2e4bff5a", 6576),
    (2, 8, "vc", "output"): ("71e37448", 6912),
    (2, 8, "vc", "downstream"): ("722f3f43", 6852),
    (2, 8, "vc", "both"): ("e19ddf34", 6960),
    (2, 8, "port", "output"): ("71e37448", 6912),
    (2, 8, "port", "downstream"): ("4905e70c", 6852),
    (2, 8, "port", "both"): ("7471a213", 6960),
}

#: 4-flit messages, 2 VCs, latency 1, VC granularity, both sources.
MULTI_FLIT_PIN = ("d10e9977", 7536)


def clos_config(num_vcs, latency, granularity, source, message_size=1) -> dict:
    """A 3-level folded Clos of half-radix 2 (8 terminals) with 8-flit
    output queues at 60 % load: congested enough that the sensed values
    steer adaptive uprouting."""
    config = latent_congestion_config(
        congestion_latency=latency, output_queue_depth=8, injection_rate=0.6,
        half_radix=2, seed=4242, warmup=20, window=60,
    )
    network = config["network"]
    network.update(num_vcs=num_vcs, channel_latency=4, terminal_channel_latency=2)
    network["router"].update(core_latency=3, input_queue_depth=16)
    network["router"]["congestion_sensor"].update(
        granularity=granularity, source=source
    )
    network["interface"] = {
        "max_packet_size": message_size, "ejection_buffer_size": 16,
    }
    config["workload"]["applications"][0]["message_size"] = {
        "type": "constant", "size": message_size,
    }
    return config


def digest(config: dict):
    """(delivery digest, deliveries) of one drained run under DetSan."""
    simulation = Simulation(Settings.from_dict(config))
    with attach_sanitizers(simulation, "det") as suite:
        results = simulation.run(max_time=5000)
        suite.finish()
        det = suite.report()["det"]
    assert results.drained
    return det["delivery_digest"], det["deliveries"]


@pytest.mark.parametrize("num_vcs,latency,granularity,source", sorted(PINS))
def test_oq_sensor_cell_matches_pin(num_vcs, latency, granularity, source):
    config = clos_config(num_vcs, latency, granularity, source)
    assert digest(config) == PINS[num_vcs, latency, granularity, source]


def test_oq_multi_flit_cell_matches_pin():
    assert digest(clos_config(2, 1, "vc", "both", message_size=4)) == (
        MULTI_FLIT_PIN
    )
