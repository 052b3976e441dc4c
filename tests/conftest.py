"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools

import pytest

from repro import Settings, Simulation
from repro.core.simulator import Simulator
from repro.net.message import Message


@pytest.fixture
def simulator():
    return Simulator()


def make_message(source=0, destination=1, num_flits=1, network=None):
    """A message of application 0, numbered by ``network`` (message 0
    when built outside any network)."""
    message_id = 0 if network is None else next(network.message_ids)
    return Message(message_id, 0, source, destination, num_flits)


def make_packet(source=0, destination=1, num_flits=1, network=None):
    """The one packet of a ``num_flits`` message, numbered by ``network``
    (packet 0 when built outside any network)."""
    packet_ids = itertools.count() if network is None else network.packet_ids
    message = make_message(source, destination, num_flits, network)
    return message.packetize(num_flits, packet_ids)[0]


def small_torus_config(**workload_overrides) -> dict:
    """A 4x4 torus with IQ routers: the workhorse integration config."""
    application = {
        "type": "blast",
        "injection_rate": 0.2,
        "warmup_duration": 300,
        "generate_duration": 1500,
        "traffic": {"type": "uniform_random"},
        "message_size": {"type": "constant", "size": 4},
    }
    application.update(workload_overrides)
    return {
        "simulator": {"seed": 17},
        "network": {
            "topology": "torus",
            "dimension_widths": [4, 4],
            "concentration": 1,
            "num_vcs": 2,
            "channel_latency": 2,
            "terminal_channel_latency": 1,
            "channel_period": 1,
            "router": {
                "architecture": "input_queued",
                "input_queue_depth": 16,
                "core_latency": 2,
            },
            "interface": {"max_packet_size": 8},
            "routing": {"algorithm": "torus_dimension_order"},
        },
        "workload": {"applications": [application]},
    }


def run_config(config: dict, max_time: int = 200_000):
    """Build and run a simulation from a plain config dict."""
    simulation = Simulation(Settings.from_dict(config))
    results = simulation.run(max_time=max_time)
    return simulation, results


def assert_network_quiescent(network) -> None:
    """After a drained run: all credits restored, all buffers empty.

    This is the strongest conservation check available: every flit that
    consumed a credit anywhere returned it, nothing is parked in any
    input buffer, and no interface has a backlog.
    """
    for router in network.routers:
        for port in range(router.num_ports):
            if not router.port_is_wired(port):
                continue
            for vc in range(router.num_vcs):
                o = port * router.num_vcs + vc
                assert router._credits[o] == router._credit_capacity[o], (
                    f"{router.full_name} port {port} vc {vc}: "
                    f"{router._credits[o]}/{router._credit_capacity[o]}"
                )
                assert router.input_occupancy(port, vc) == 0
    for interface in network.interfaces:
        assert interface.pending_flits() == 0
        assert interface.port_is_wired(0)
        assert interface._credits == interface._credit_capacity


def assert_flit_conservation(network) -> None:
    """Every injected flit was ejected somewhere."""
    injected = sum(i.flits_injected for i in network.interfaces)
    ejected = sum(i.flits_ejected for i in network.interfaces)
    assert injected == ejected, f"injected {injected} != ejected {ejected}"
