"""The IQ router's per-cycle stage order, observed through the real
``_step`` event handler.

``InputQueuedRouter._step`` is the only implementation of an IQ cycle:
land the flits whose core traversal is over in their staging registers
-> drain staging registers onto free channels -> route new head packets
-> allocate output VCs -> run the crossbar.  The order is semantics, not
style: landing first is what a per-flit arrival event before the step
used to do, draining next frees a staging slot the same cycle's
crossbar may refill, and routing before allocation before the crossbar
is what lets a head flit traverse in its arrival cycle.  This test
drives the middle router of a 3-router chain through a
crossbar-contested cycle and a staging-stall cycle and asserts the
order on every cycle.
"""

from __future__ import annotations

from repro import factory, models
from repro.config.settings import Settings
from repro.core.rng import RandomManager
from repro.core.simulator import Simulator
from repro.net.network import Network
from repro.router.input_queued import InputQueuedRouter

from tests.conftest import make_message

STAGES = ("land", "drain", "route", "alloc", "xbar")


def build_chain(simulator: Simulator) -> Network:
    """Three IQ routers in a line; a 2-tick channel clock under a 1-tick
    core, so a staging register fills faster than its channel drains."""
    models.load_all()
    return factory.create(
        Network, "parking_lot", simulator, "network", None,
        Settings.from_dict({
            "topology": "parking_lot",
            "length": 3,
            "concentration": 1,
            "num_vcs": 2,
            "channel_latency": 2,
            "terminal_channel_latency": 2,
            "channel_period": 2,
            "router": {
                "architecture": "input_queued",
                "input_queue_depth": 8,
                "core_latency": 1,
            },
            "interface": {"max_packet_size": 8},
            "routing": {"algorithm": "chain"},
        }),
        RandomManager(1),
    )


class StepTrace:
    """Per-``_step`` record of which stages ran, in call order."""

    def __init__(self, router: InputQueuedRouter, out_port: int):
        self.router = router
        self.steps = []  # [{"tick", "staged_at_entry", "stages", "bids"}]
        self._tap(router, "_land_core_arrivals", "land")
        self._tap(router._flit_out[out_port], "send_flit", "drain")
        self._tap(router, "_update_input_vcs", "route")
        self._tap(router, "_allocate_vcs", "alloc")
        self._tap(router, "_run_crossbar", "xbar")
        grant = router.scheduler.grant

        def traced_grant(bidders, free, now):
            granted = grant(bidders, free, now)
            self.steps[-1]["bids"] = (
                sorted(router._in_out_port[i] for i in bidders),
                len(granted),
            )
            return granted

        router.scheduler.grant = traced_grant

        # The engine looks `router._step` up at every (re)schedule, so
        # this shim sees each cycle and hands it to the real handler.
        def traced_step(event):
            now = router.simulator.tick
            self.steps.append({
                "tick": now,
                # Staged once the step has landed its core arrivals.
                "staged_at_entry": router._staged_total + sum(
                    arrival <= now for arrival, *_ in router._core_fifo
                ),
                "stages": [],
                "bids": None,
            })
            InputQueuedRouter._step(router, event)

        router._step = traced_step

    def _tap(self, obj, name: str, label: str) -> None:
        real = getattr(obj, name)

        def tapped(*args):
            self.steps[-1]["stages"].append(label)
            return real(*args)

        setattr(obj, name, tapped)


def test_iq_step_stage_order_through_contested_and_stalled_cycles():
    simulator = Simulator()
    network = build_chain(simulator)
    router = network.routers[1]
    down = network.down_port
    trace = StepTrace(router, down)
    delivered = []
    network.interfaces[0].message_delivered_listeners.append(delivered.append)
    # Both messages head for terminal 0, i.e. out of router 1's down
    # port: one arrives from up the chain, one from the local terminal,
    # timed so their flits overlap in router 1's input buffers.
    from_chain = make_message(2, 0, 4, network)
    from_local = make_message(1, 0, 4, network)
    simulator.call_at(0, lambda e: network.interfaces[2].send_message(from_chain))
    simulator.call_at(3, lambda e: network.interfaces[1].send_message(from_local))
    simulator.run()

    assert delivered == [from_chain, from_local]
    assert router.flits_sent == 8
    assert not router._step_scheduled and router._committed_total == 0
    assert not router._core_fifo
    assert trace.steps, "router 1 never stepped"

    for step in trace.steps:
        # Every cycle runs its stages in the one canonical order (a
        # stage whose worklist is empty is skipped, never reordered).
        ranks = [STAGES.index(stage) for stage in step["stages"]]
        assert ranks == sorted(ranks), step
        assert step["stages"].count("xbar") <= 1, step

    # Arrival-cycle pipeline: the first step routes, allocates and
    # traverses the crossbar in one cycle.
    assert trace.steps[0]["stages"] == ["route", "alloc", "xbar"]

    # Contested cycle: two input VCs bid for the same output port, the
    # scheduler grants exactly one, and the loser goes later.
    contested = [
        s for s in trace.steps
        if s["bids"] is not None and len(set(s["bids"][0])) < len(s["bids"][0])
    ]
    assert contested, "no crossbar cycle was contested"
    assert all(bids == ([down, down], 1) for bids in
               (s["bids"] for s in contested))

    # Staging-stall cycle: a flit sits in the staging register, the
    # channel is mid-period, so the drain stage sends nothing and the
    # very next cycle drains it.
    stalls = [
        index for index, step in enumerate(trace.steps)
        if step["staged_at_entry"] and "drain" not in step["stages"]
    ]
    assert stalls, "the 2-tick channel never stalled a staged flit"
    for index in stalls:
        following = trace.steps[index + 1]
        assert following["tick"] == trace.steps[index]["tick"] + 1
        assert [s for s in following["stages"] if s != "land"][0] == "drain", (
            following
        )
    # Every flit crossed the core through the FIFO, none through an event.
    assert sum(s["stages"].count("land") for s in trace.steps) > 0
