"""The OQ and IOQ routers' per-cycle stage order, observed through the
real ``_step`` event handlers.

Each architecture's ``_step`` is the only implementation of its cycle:
land the flits whose core traversal is over in their output queues ->
drain the output queues onto free channels, ports in ascending order ->
route new head packets -> claim output VCs and move flits (OQ: one fused
pass; IOQ: VC allocation, then the crossbar) -> fold the congestion
sensor's delay line.  As for the IQ router
(``tests/router/test_iq_step_order.py``), the order is semantics:
landing first lets a flit leave the router in its landing cycle, and
draining before the move frees queue space the same cycle can refill.
The test drives the middle router of a 3-router chain with traffic in
both directions, so one cycle drains two ports, and forces a fold on
every step by lowering ``PENDING_LIMIT`` to zero.
"""

from __future__ import annotations

import pytest

import repro.router.input_output_queued as ioq_module
import repro.router.output_queued as oq_module
from repro import factory, models
from repro.config.settings import Settings
from repro.core.rng import RandomManager
from repro.core.simulator import Simulator
from repro.net.network import Network

from tests.conftest import make_message

#: Canonical stage order per architecture.
STAGES = {
    "output_queued": ("land", "drain", "route", "move", "fold"),
    "input_output_queued": ("land", "drain", "route", "alloc", "xbar", "fold"),
}
#: Router method -> stage label (the drain is inlined; it is observed on
#: the output channels).
TAPS = {
    "output_queued": {
        "_land_core_arrivals": "land",
        "_update_input_vcs": "route",
        "_allocate_and_move": "move",
    },
    "input_output_queued": {
        "_land_core_arrivals": "land",
        "_update_input_vcs": "route",
        "_allocate_vcs": "alloc",
        "_run_crossbar": "xbar",
    },
}


def build_chain(simulator: Simulator, architecture: str) -> Network:
    """Three routers in a line, one terminal each, 2 VCs, 4-flit packets."""
    models.load_all()
    router = {
        "architecture": architecture,
        "input_queue_depth": 8,
        "core_latency": 2,
        "output_queue_depth": 8,
        "congestion_sensor": {"source": "both", "latency": 2},
    }
    return factory.create(
        Network, "parking_lot", simulator, "network", None,
        Settings.from_dict({
            "topology": "parking_lot",
            "length": 3,
            "concentration": 1,
            "num_vcs": 2,
            "channel_latency": 2,
            "terminal_channel_latency": 1,
            "channel_period": 1,
            "router": router,
            "interface": {"max_packet_size": 4},
            "routing": {"algorithm": "chain"},
        }),
        RandomManager(1),
    )


class StepTrace:
    """Per-``_step`` record of which stages ran, in call order."""

    def __init__(self, router, architecture: str):
        self.steps = []  # [{"tick", "stages", "drained"}]
        for name, label in TAPS[architecture].items():
            self._tap(router, name, label)
        for port, channel in enumerate(router._flit_out):
            send = channel.send_flit

            def traced_send(flit, port=port, send=send):
                self.steps[-1]["stages"].append("drain")
                self.steps[-1]["drained"].append(port)
                send(flit)

            channel.send_flit = traced_send
        fold = router.sensor.fold

        def traced_fold():
            self.steps[-1]["stages"].append("fold")
            fold()

        router.sensor.fold = traced_fold
        step = type(router)._step

        # The wheel looks `router._step` up at every (re)schedule, so this
        # shim sees each cycle and hands it to the real handler.
        def traced_step(event):
            self.steps.append(
                {"tick": router.simulator.tick, "stages": [], "drained": []}
            )
            step(router, event)

        router._step = traced_step

    def _tap(self, obj, name: str, label: str) -> None:
        real = getattr(obj, name)

        def tapped(*args):
            self.steps[-1]["stages"].append(label)
            return real(*args)

        setattr(obj, name, tapped)


@pytest.mark.parametrize("architecture", sorted(STAGES))
def test_step_stage_order_with_two_way_traffic(architecture, monkeypatch):
    monkeypatch.setattr(oq_module, "PENDING_LIMIT", 0)
    monkeypatch.setattr(ioq_module, "PENDING_LIMIT", 0)
    simulator = Simulator()
    network = build_chain(simulator, architecture)
    router = network.routers[1]
    trace = StepTrace(router, architecture)
    delivered = []
    for interface in network.interfaces:
        interface.message_delivered_listeners.append(delivered.append)
    # Down the chain, up the chain and from the local terminal, timed so
    # router 1 holds flits for both of its chain ports at once.
    messages = [make_message(2, 0, 8, network), make_message(0, 2, 8, network),
                make_message(1, 0, 8, network)]
    for tick, (message, source) in zip((0, 0, 2), zip(messages, (2, 0, 1))):
        simulator.call_at(
            tick,
            lambda e, m=message, s=source: network.interfaces[s].send_message(m),
        )
    simulator.run()

    assert sorted(m.id for m in delivered) == sorted(m.id for m in messages)
    assert router.flits_sent == 24
    assert not router._step_scheduled and not router._core_fifo
    assert not router._queued_ports and not router._occupied_inputs
    order = STAGES[architecture]
    for step in trace.steps:
        # One canonical order every cycle: an empty stage is skipped,
        # never reordered, and the drain sends at most once per port,
        # in ascending port order.
        ranks = [order.index(stage) for stage in step["stages"]]
        assert ranks == sorted(ranks), step
        assert step["drained"] == sorted(set(step["drained"])), step
    # Arrival-cycle pipeline: the first step routes and moves/allocates.
    first = [s for s in trace.steps[0]["stages"] if s != "fold"]
    assert first == list(order[2:-1]), trace.steps[0]
    # A landing cycle drains what it landed in the same cycle.
    assert any(step["stages"][:2] == ["land", "drain"] for step in trace.steps)
    # Both chain ports drained within one cycle.
    assert any(len(step["drained"]) >= 2 for step in trace.steps)
    # With PENDING_LIMIT at 0 every step that recorded something folds
    # last: after the final step only entries not yet due remain.
    assert sum(step["stages"][-1:] == ["fold"] for step in trace.steps) > 10
    last = trace.steps[-1]["tick"]
    assert all(due > last for due, _slot, _delta in router._sensed)
