"""Little's law as an exact sample-path identity (ROADMAP item 1(a)).

For any sample path, the area under the flits-in-network curve equals
the summed residence time of the flits: ``sum_t N(t) = sum_flits
(receive_tick - send_tick)``.  ``N(t)`` is counted here by a probe that
shares no code with the statistics: it walks the flit channels' wires,
the routers' input buffers, in-core FIFOs and output queues.  The right
side comes from the message log alone.

Epsilon convention.  A flit enters the network at its ``send_tick``,
when the source interface puts it on the terminal channel (``EPS_STEP``),
and leaves at its ``receive_tick``, when it lands at the destination
interface (``EPS_DELIVER``), whose ejection path consumes it at once.
The probe runs at ``EPS_MONITOR``, after every phase of its tick, so the
flits it counts at tick ``t`` are exactly those with ``send_tick <= t <
receive_tick``; summed over every tick the identity has no epsilon
slack.  Single-flit messages make a log record's one packet one flit.
"""

from __future__ import annotations

from repro import Settings, Simulation
from repro.configs import latent_congestion_config
from repro.net.phases import EPS_MONITOR


def flits_in_network(network) -> int:
    count = sum(len(channel._inflight) for channel in network.flit_channels)
    for router in network.routers:
        count += len(router._core_fifo)
        count += sum(len(flits) for flits in router._in_flits)
        count += sum(len(queue) for queue in router._queues)
    return count


def test_area_under_occupancy_equals_summed_latency():
    config = latent_congestion_config(
        congestion_latency=4, output_queue_depth=8, injection_rate=0.5,
        half_radix=2, seed=99, warmup=30, window=120,
    )
    config["network"].update(channel_latency=3, terminal_channel_latency=2)
    config["network"]["router"]["core_latency"] = 2
    simulation = Simulation(Settings.from_dict(config))
    simulator = simulation.simulator
    samples = []

    def probe(event):
        samples.append(flits_in_network(simulation.network))
        if samples[-1] or not simulation.workload.drained:
            simulator.call_at(simulator.tick + 1, probe, None, EPS_MONITOR)

    simulator.call_at(0, probe, None, EPS_MONITOR)
    results = simulation.run(max_time=20_000)
    assert results.drained and samples[-1] == 0

    records = simulation.message_log.records
    injected = sum(i.flits_injected for i in simulation.network.interfaces)
    assert len(records) == injected > 200
    assert all(len(record.packets) == 1 for record in records)
    residence = sum(
        packet.receive_tick - packet.send_tick
        for record in records for packet in record.packets
    )
    assert sum(samples) == residence
