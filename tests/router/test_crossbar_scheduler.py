"""Crossbar scheduler: the three flow control techniques (§VI-C)."""

import pytest

from repro.config.settings import Settings
from repro.core.rng import RandomManager
from repro.router.crossbar_scheduler import (
    FLIT_BUFFER,
    PACKET_BUFFER,
    WINNER_TAKE_ALL,
    CrossbarScheduler,
)

from tests.router.input_tables import InputTables

from tests.conftest import make_packet


def make_scheduler(mode, num_ports=4, num_vcs=2):
    """A scheduler, the free-space table it is granted against and the
    input tables it reads its bidders from."""
    settings = Settings.from_dict({"flow_control": mode})
    inputs = InputTables(num_ports, num_vcs)
    free = inputs.free_table(8)
    scheduler = CrossbarScheduler(inputs, settings, RandomManager(0), "xbar")
    return scheduler, free, inputs


class TestFlitBuffer:
    def test_interleaves_two_packets(self):
        """FB: contending packets alternate, each taking 50% (paper)."""
        scheduler, free, inputs = make_scheduler(FLIT_BUFFER)
        a = make_packet(num_flits=4)
        b = make_packet(num_flits=4)
        winners = []
        ai = bi = 0
        for _cycle in range(8):
            bids = []
            if ai < 4:
                bids.append(inputs.load(a, ai, in_port=0))
            if bi < 4:
                bids.append(inputs.load(b, bi, in_port=1))
            grants = scheduler.grant(bids, free, _cycle)
            assert len(grants) == 1
            (winner,) = inputs.in_ports(grants)
            winners.append(winner)
            if winner == 0:
                ai += 1
            else:
                bi += 1
        assert winners == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_requires_one_credit(self):
        scheduler, free, inputs = make_scheduler(FLIT_BUFFER)
        free[inputs.output_vc(0, 0)] = 0
        packet = make_packet(num_flits=2)
        assert scheduler.grant([inputs.load(packet, 0)], free, 0) == []
        free[inputs.output_vc(0, 0)] = 1
        assert len(scheduler.grant([inputs.load(packet, 0)], free, 1)) == 1

    def test_never_locks(self):
        scheduler, free, inputs = make_scheduler(FLIT_BUFFER)
        packet = make_packet(num_flits=3)
        scheduler.grant([inputs.load(packet, 0)], free, 0)
        assert scheduler.locked_owner(0) is None


class TestPacketBuffer:
    def test_needs_credits_for_whole_packet(self):
        scheduler, free, inputs = make_scheduler(PACKET_BUFFER)
        free[inputs.output_vc(0, 0)] = 3
        packet = make_packet(num_flits=4)
        assert scheduler.grant([inputs.load(packet, 0)], free, 0) == []
        free[inputs.output_vc(0, 0)] = 4
        assert len(scheduler.grant([inputs.load(packet, 0)], free, 1)) == 1

    def test_locks_until_tail(self):
        scheduler, free, inputs = make_scheduler(PACKET_BUFFER)
        a = make_packet(num_flits=3)
        b = make_packet(num_flits=3)
        # a wins the initial arbitration; b keeps bidding.
        grants = scheduler.grant(
            [inputs.load(a, 0, in_port=0), inputs.load(b, 0, in_port=1)], free, 0
        )
        assert inputs.in_ports(grants) == [0]
        for i in (1, 2):
            grants = scheduler.grant(
                [inputs.load(a, i, in_port=0), inputs.load(b, 0, in_port=1)], free, i
            )
            assert inputs.in_ports(grants) == [0]
        # Tail granted: lock released, b finally wins.
        grants = scheduler.grant([inputs.load(b, 0, in_port=1)], free, 3)
        assert inputs.in_ports(grants) == [1]

    def test_output_idles_on_upstream_gap(self):
        """PB keeps the lock even when the owner has no flit this cycle."""
        scheduler, free, inputs = make_scheduler(PACKET_BUFFER)
        a = make_packet(num_flits=3)
        b = make_packet(num_flits=1)
        scheduler.grant([inputs.load(a, 0, in_port=0)], free, 0)
        # Owner (a) missing; challenger (b) present: nothing is granted.
        assert scheduler.grant([inputs.load(b, 0, in_port=1)], free, 1) == []
        assert scheduler.locked_owner(0) == (0, 0)

    def test_no_credit_stall_once_streaming(self):
        """The reservation guarantees credits; a stall is a hard error."""
        scheduler, free, inputs = make_scheduler(PACKET_BUFFER)
        packet = make_packet(num_flits=2)
        scheduler.grant([inputs.load(packet, 0)], free, 0)
        free[inputs.output_vc(0, 0)] = 0  # violate the invariant from outside
        with pytest.raises(RuntimeError):
            scheduler.grant([inputs.load(packet, 1)], free, 1)


class TestWinnerTakeAll:
    def test_starts_without_full_packet_credits(self):
        scheduler, free, inputs = make_scheduler(WINNER_TAKE_ALL)
        free[inputs.output_vc(0, 0)] = 1  # only 1 credit for a 4-flit packet
        packet = make_packet(num_flits=4)
        assert len(scheduler.grant([inputs.load(packet, 0)], free, 0)) == 1

    def test_lock_holds_while_streaming(self):
        scheduler, free, inputs = make_scheduler(WINNER_TAKE_ALL)
        a = make_packet(num_flits=3)
        b = make_packet(num_flits=3)
        scheduler.grant(
            [inputs.load(a, 0, in_port=0), inputs.load(b, 0, in_port=1)], free, 0
        )
        grants = scheduler.grant(
            [inputs.load(a, 1, in_port=0), inputs.load(b, 0, in_port=1)], free, 1
        )
        assert inputs.in_ports(grants) == [0]

    def test_credit_stall_unlocks_and_hands_over(self):
        """WTA: a stalled streamer loses the output to a ready packet."""
        scheduler, free, inputs = make_scheduler(WINNER_TAKE_ALL)
        a = make_packet(num_flits=4)
        b = make_packet(num_flits=2)
        free[inputs.output_vc(0, 0)] = 8
        free[inputs.output_vc(0, 1)] = 8
        scheduler.grant([inputs.load(a, 0, in_port=0, out_vc=0)], free, 0)
        free[inputs.output_vc(0, 0)] = 0  # a's VC runs out of credits
        grants = scheduler.grant(
            [inputs.load(a, 1, in_port=0, out_vc=0),
             inputs.load(b, 0, in_port=1, out_vc=1)], free, 1
        )
        assert inputs.in_ports(grants) == [1]
        assert scheduler.locked_owner(0) == (1, 0)

    def test_upstream_gap_unlocks(self):
        scheduler, free, inputs = make_scheduler(WINNER_TAKE_ALL)
        a = make_packet(num_flits=3)
        b = make_packet(num_flits=1)
        scheduler.grant([inputs.load(a, 0, in_port=0)], free, 0)
        # Owner absent this cycle: B takes over immediately.
        grants = scheduler.grant([inputs.load(b, 0, in_port=1)], free, 1)
        assert inputs.in_ports(grants) == [1]


class TestGeneralBehaviour:
    def test_one_grant_per_output(self):
        scheduler, free, inputs = make_scheduler(FLIT_BUFFER)
        bids = [
            inputs.load(make_packet(num_flits=1), 0, in_port=i, out_port=i % 2)
            for i in range(4)
        ]
        grants = scheduler.grant(bids, free, 0)
        assert len(grants) == 2
        assert set(inputs.out_ports(grants)) == {0, 1}

    def test_full_input_speedup(self):
        """Two VCs of the same input port can win different outputs."""
        scheduler, free, inputs = make_scheduler(FLIT_BUFFER)
        bids = [
            inputs.load(make_packet(num_flits=1), 0, in_port=0, in_vc=0, out_port=0),
            inputs.load(make_packet(num_flits=1), 0, in_port=0, in_vc=1, out_port=1),
        ]
        grants = scheduler.grant(bids, free, 0)
        assert len(grants) == 2

    def test_single_flit_packets_behave_identically_across_modes(self):
        """The paper's observation: with 1-flit messages the three
        techniques all act the same."""
        histories = {}
        for mode in (FLIT_BUFFER, PACKET_BUFFER, WINNER_TAKE_ALL):
            scheduler, free, inputs = make_scheduler(mode)
            history = []
            packets = {i: make_packet() for i in range(3)}
            pending = dict(packets)
            for cycle in range(6):
                bids = [
                    inputs.load(p, 0, in_port=port)
                    for port, p in pending.items()
                ]
                grants = scheduler.grant(bids, free, cycle)
                for port in inputs.in_ports(grants):
                    history.append(port)
                    del pending[port]
                if not pending:
                    break
            histories[mode] = history
        assert histories[FLIT_BUFFER] == histories[PACKET_BUFFER]
        assert histories[FLIT_BUFFER] == histories[WINNER_TAKE_ALL]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("bogus")

    def test_empty_schedule(self):
        scheduler, free, inputs = make_scheduler(FLIT_BUFFER)
        assert scheduler.grant([], free, 0) == []
