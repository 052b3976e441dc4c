"""Property-based tests of the crossbar scheduler's invariants."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.config.settings import Settings
from repro.core.rng import RandomManager
from repro.router.arbiter import create_arbiter
from repro.router.crossbar_scheduler import (
    FLIT_BUFFER,
    PACKET_BUFFER,
    WINNER_TAKE_ALL,
    CrossbarScheduler,
)

from tests.router.input_tables import InputTables

from tests.conftest import make_packet

MODES = (FLIT_BUFFER, PACKET_BUFFER, WINNER_TAKE_ALL)
ARBITERS = ("round_robin", "age_based", "random", "fixed_priority")

Granted = namedtuple("Granted", "in_port in_vc out_port out_vc packet flit")


class Workbench:
    """Drives a scheduler with a set of packets until all are granted
    or progress stops, checking invariants each cycle."""

    def __init__(self, mode, num_ports=3, num_vcs=2, credits=64):
        self.inputs = InputTables(num_ports, num_vcs)
        self.scheduler = CrossbarScheduler(
            self.inputs,
            Settings.from_dict({"flow_control": mode}),
            RandomManager(0), "xbar",
        )
        self.num_vcs = num_vcs
        self.free = self.inputs.free_table(credits)
        # input VC index -> [packet, next flit index]
        self.streams = {}

    def add_stream(self, num_flits, in_port, in_vc, out_port, out_vc):
        packet = make_packet(0, 1, num_flits)
        i = self.inputs.load(packet, 0, in_port, in_vc, out_port, out_vc)
        self.streams[i] = [packet, 0]

    def step(self, now):
        inputs = self.inputs
        bidders = [i for i in self.streams if inputs._in_flits[i]]
        grants = self.scheduler.grant(bidders, self.free, now)
        # Invariant: at most one grant per output port.
        out_ports = inputs.out_ports(grants)
        assert len(out_ports) == len(set(out_ports))
        # Invariant: at most one grant per input VC.
        assert len(grants) == len(set(grants))
        granted = []
        for i in grants:
            out_port = inputs._in_out_port[i]
            out_vc = inputs._in_out_vc[i]
            # Invariant: grants only go to actual bidders with credits.
            assert i in bidders
            o = inputs.output_vc(out_port, out_vc)
            assert self.free[o] >= 1
            self.free[o] -= 1
            entry = self.streams[i]
            flit = inputs._in_flits[i].popleft()
            assert flit.packet is entry[0]
            assert flit.index == entry[1]
            entry[1] += 1
            granted.append(Granted(i // self.num_vcs, i % self.num_vcs,
                                   out_port, out_vc, entry[0], flit))
        return granted


stream_strategy = st.tuples(
    st.integers(min_value=1, max_value=6),   # flits
    st.integers(min_value=0, max_value=2),   # in_port
    st.integers(min_value=0, max_value=1),   # in_vc
    st.integers(min_value=0, max_value=2),   # out_port
    st.integers(min_value=0, max_value=1),   # out_vc
)


@given(st.sampled_from(MODES),
       st.lists(stream_strategy, min_size=1, max_size=6))
@hyp_settings(max_examples=60, deadline=None)
def test_all_flits_eventually_granted_in_order(mode, stream_specs):
    """With ample credits every packet completes, flits in order, and
    (input VC, output VC) pairings never interleave within a stream."""
    bench = Workbench(mode)
    used_inputs = set()
    used_outputs = set()
    for flits, in_port, in_vc, out_port, out_vc in stream_specs:
        # One stream per input VC and per output VC (wormhole ownership
        # is the router's job; the scheduler assumes it).
        if (in_port, in_vc) in used_inputs or (out_port, out_vc) in used_outputs:
            continue
        used_inputs.add((in_port, in_vc))
        used_outputs.add((out_port, out_vc))
        bench.add_stream(flits, in_port, in_vc, out_port, out_vc)
    if not bench.streams:
        return
    total_flits = sum(e[0].num_flits for e in bench.streams.values())
    granted = 0
    for cycle in range(total_flits * 4 + 10):
        granted += len(bench.step(cycle))
        if granted == total_flits:
            break
    assert granted == total_flits, f"{mode}: stalled at {granted}/{total_flits}"


@given(st.lists(stream_strategy, min_size=2, max_size=6))
@hyp_settings(max_examples=40, deadline=None)
def test_packet_buffer_never_interleaves_an_output(stream_specs):
    """Under PB, once an output port grants a packet, no other packet is
    granted on that port until the first one's tail."""
    bench = Workbench(PACKET_BUFFER)
    used_inputs, used_outputs = set(), set()
    for flits, in_port, in_vc, out_port, out_vc in stream_specs:
        if (in_port, in_vc) in used_inputs or (out_port, out_vc) in used_outputs:
            continue
        used_inputs.add((in_port, in_vc))
        used_outputs.add((out_port, out_vc))
        bench.add_stream(flits, in_port, in_vc, out_port, out_vc)
    if not bench.streams:
        return
    active_packet = {}
    total = sum(e[0].num_flits for e in bench.streams.values())
    granted = 0
    for cycle in range(total * 4 + 10):
        for grant in bench.step(cycle):
            granted += 1
            current = active_packet.get(grant.out_port)
            if current is not None:
                assert current is grant.packet, "PB interleaved an output"
            if grant.flit.tail:
                active_packet[grant.out_port] = None
                active_packet.pop(grant.out_port)
            else:
                active_packet[grant.out_port] = grant.packet
        if granted == total:
            break


def _state(value):
    return (value.bit_generator.state
            if isinstance(value, np.random.Generator) else value)


def arbiter_state(arbiter):
    """Everything an arbiter carries from one decision to the next: its
    per-slot lists, a generator as its state."""
    return {
        name: [_state(value) for value in values]
        for name, values in vars(arbiter).items() if isinstance(values, list)
    }


def slot_states(arbiter):
    """``arbiter_state`` split by slot: per slot, its entry of each list."""
    rows = arbiter_state(arbiter).values()
    return [[row[slot] for row in rows] for slot in range(arbiter.slots)]


def make_arbiter(kind, slots=4, size=8, label="arb{}".format):
    return create_arbiter(
        Settings.from_dict({"type": kind}), slots, size, RandomManager(3), label
    )


# A cycle's bidders on distinct outputs: (in_port, in_vc, out_vc, free)
# for each output port drawn, plus the packet's injection tick.
distinct_round = st.dictionaries(
    st.integers(min_value=0, max_value=3),  # out_port
    st.tuples(
        st.integers(min_value=0, max_value=3),  # in_port
        st.integers(min_value=0, max_value=1),  # in_vc
        st.integers(min_value=0, max_value=1),  # out_vc
        st.integers(min_value=0, max_value=2),  # free slots
        st.integers(min_value=0, max_value=50),  # injection tick
    ),
    max_size=4,
)


@given(st.sampled_from(ARBITERS), st.lists(distinct_round, max_size=6))
@hyp_settings(max_examples=80, deadline=None)
def test_forced_branch_matches_the_per_output_path(kind, rounds):
    """On bidders that target distinct outputs under flit-buffer flow
    control, the forced branch grants what the per-output path grants
    and leaves every arbiter in the same state."""
    settings = Settings.from_dict({"arbiter": {"type": kind}})
    inputs = InputTables(4, 2)
    forced = CrossbarScheduler(inputs, settings, RandomManager(5), "xbar")
    general = CrossbarScheduler(inputs, settings, RandomManager(5), "xbar")

    def no_arbitration(*_args):
        raise AssertionError("distinct outputs took the per-output path")

    forced._arbitrate = no_arbitration
    for now, outputs in enumerate(rounds, start=60):
        bidders = []
        free = inputs.free_table(0)
        for out_port, (in_port, in_vc, out_vc, space, injected) in outputs.items():
            packet = make_packet(0, 1, 2)
            packet.injection_tick = injected
            i = in_port * inputs.num_vcs + in_vc
            if i in bidders:
                continue  # an input VC bids for one output at a time
            bidders.append(inputs.load(packet, 0, in_port, in_vc, out_port, out_vc))
            free[inputs.output_vc(out_port, out_vc)] = space
        granted = forced.grant(bidders, free, now)
        expected = general._arbitrate(bidders, free, now)
        assert sorted(granted, key=inputs._in_out_port.__getitem__) == expected
        assert arbiter_state(forced.arbiter) == arbiter_state(general.arbiter)


def aged_packets():
    packets = [make_packet(0, 1) for _ in range(8)]
    for index, packet in enumerate(packets):
        packet.injection_tick = 7 * index % 5
    return packets


@pytest.mark.parametrize("slot", (0, 3))
@pytest.mark.parametrize("kind", ARBITERS)
def test_forced_leaves_the_state_of_a_one_request_arbitrate(kind, slot):
    """``Arbiter.forced`` moves each arbiter type exactly as a one-request
    ``arbitrate`` would, with contested rounds in between to show it."""
    forced, arbitrated = make_arbiter(kind), make_arbiter(kind)
    packets = aged_packets()
    contested = [(index, packets[index]) for index in (1, 4, 6)]
    for now, index in enumerate((5, 0, 7, 2, 2, 3), start=10):
        forced.forced(slot, index, packets[index], now)
        assert arbitrated.arbitrate(slot, [(index, packets[index])], now) == index
        assert arbiter_state(forced) == arbiter_state(arbitrated)
        assert forced.arbitrate(slot, contested, now) == arbitrated.arbitrate(
            slot, contested, now
        )
        assert arbiter_state(forced) == arbiter_state(arbitrated)


@pytest.mark.parametrize("kind", ARBITERS)
def test_a_slot_decides_alone_and_leaves_the_others_alone(kind):
    """Arbitrating or forcing slot ``s`` leaves every other slot's state
    unchanged, and ``s`` decides as a one-slot arbiter of its own fed
    only ``s``'s requests would."""
    shared = make_arbiter(kind)
    own = [make_arbiter(kind, slots=1, label=lambda _, s=s: f"arb{s}")
           for s in range(shared.slots)]
    packets = aged_packets()
    contested = [(index, packets[index]) for index in (1, 4, 6, 7)]
    moved = False
    for now, (slot, index) in enumerate(
            [(0, 5), (2, 1), (0, 3), (3, 7), (1, 0), (2, 6), (3, 2)], start=10):
        before = slot_states(shared)
        shared.forced(slot, index, packets[index], now)
        own[slot].forced(0, index, packets[index], now)
        winner = shared.arbitrate(slot, contested[slot % 2:], now)
        assert winner == own[slot].arbitrate(0, contested[slot % 2:], now)
        after = slot_states(shared)
        assert [row for s, row in enumerate(after) if s != slot] == [
            row for s, row in enumerate(before) if s != slot]
        assert after[slot] == slot_states(own[slot])[0]
        moved |= after[slot] != before[slot]
    assert moved == (kind in ("round_robin", "random"))
