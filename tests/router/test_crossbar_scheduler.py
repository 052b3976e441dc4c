"""Crossbar scheduler: the three flow control techniques (§VI-C)."""

import pytest

from repro.config.settings import Settings
from repro.core.rng import RandomManager
from repro.net.buffer import FlitBuffer
from repro.net.message import Message
from repro.router.base import InputVcState
from repro.router.crossbar_scheduler import (
    FLIT_BUFFER,
    PACKET_BUFFER,
    WINNER_TAKE_ALL,
    CrossbarScheduler,
)


def make_scheduler(mode, num_ports=4, num_vcs=2):
    """A scheduler and the free-space table it is granted against."""
    settings = Settings.from_dict({"flow_control": mode})
    free = [[8] * num_vcs for _ in range(num_ports)]
    scheduler = CrossbarScheduler(
        num_ports, num_vcs, settings, RandomManager(0), "xbar"
    )
    return scheduler, free


def make_packet(num_flits):
    return Message(0, 0, 1, num_flits).packetize(num_flits)[0]


def bid_for(packet, flit_index, in_port=0, in_vc=0, out_port=0, out_vc=0):
    """A bidder whose input VC holds ``packet`` from ``flit_index`` on,
    allocated to output VC (out_port, out_vc)."""
    state = InputVcState(FlitBuffer(None))
    state.buffer._flits.extend(
        packet.flit(i) for i in range(flit_index, packet.num_flits))
    state.packet = packet
    state.allocated = True
    state.out_port = out_port
    state.out_vc = out_vc
    return (in_port, in_vc, state)


class TestFlitBuffer:
    def test_interleaves_two_packets(self):
        """FB: contending packets alternate, each taking 50% (paper)."""
        scheduler, free = make_scheduler(FLIT_BUFFER)
        a = make_packet(4)
        b = make_packet(4)
        winners = []
        ai = bi = 0
        for _cycle in range(8):
            bids = []
            if ai < 4:
                bids.append(bid_for(a, ai, in_port=0))
            if bi < 4:
                bids.append(bid_for(b, bi, in_port=1))
            grants = scheduler.grant(bids, free, _cycle)
            assert len(grants) == 1
            grant = grants[0]
            winners.append(grant[0])
            if grant[0] == 0:
                ai += 1
            else:
                bi += 1
        assert winners == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_requires_one_credit(self):
        scheduler, free = make_scheduler(FLIT_BUFFER)
        free[0][0] = 0
        packet = make_packet(2)
        assert scheduler.grant([bid_for(packet, 0)], free, 0) == []
        free[0][0] = 1
        assert len(scheduler.grant([bid_for(packet, 0)], free, 1)) == 1

    def test_never_locks(self):
        scheduler, free = make_scheduler(FLIT_BUFFER)
        packet = make_packet(3)
        scheduler.grant([bid_for(packet, 0)], free, 0)
        assert scheduler.locked_owner(0) is None


class TestPacketBuffer:
    def test_needs_credits_for_whole_packet(self):
        scheduler, free = make_scheduler(PACKET_BUFFER)
        free[0][0] = 3
        packet = make_packet(4)
        assert scheduler.grant([bid_for(packet, 0)], free, 0) == []
        free[0][0] = 4
        assert len(scheduler.grant([bid_for(packet, 0)], free, 1)) == 1

    def test_locks_until_tail(self):
        scheduler, free = make_scheduler(PACKET_BUFFER)
        a = make_packet(3)
        b = make_packet(3)
        # a wins the initial arbitration; b keeps bidding.
        grants = scheduler.grant(
            [bid_for(a, 0, in_port=0), bid_for(b, 0, in_port=1)], free, 0
        )
        assert grants[0][0] == 0
        for i in (1, 2):
            grants = scheduler.grant(
                [bid_for(a, i, in_port=0), bid_for(b, 0, in_port=1)], free, i
            )
            assert [g[0] for g in grants] == [0]
        # Tail granted: lock released, b finally wins.
        grants = scheduler.grant([bid_for(b, 0, in_port=1)], free, 3)
        assert grants[0][0] == 1

    def test_output_idles_on_upstream_gap(self):
        """PB keeps the lock even when the owner has no flit this cycle."""
        scheduler, free = make_scheduler(PACKET_BUFFER)
        a = make_packet(3)
        b = make_packet(1)
        scheduler.grant([bid_for(a, 0, in_port=0)], free, 0)
        # Owner (a) missing; challenger (b) present: nothing is granted.
        assert scheduler.grant([bid_for(b, 0, in_port=1)], free, 1) == []
        assert scheduler.locked_owner(0) == (0, 0)

    def test_no_credit_stall_once_streaming(self):
        """The reservation guarantees credits; a stall is a hard error."""
        scheduler, free = make_scheduler(PACKET_BUFFER)
        packet = make_packet(2)
        scheduler.grant([bid_for(packet, 0)], free, 0)
        free[0][0] = 0  # violate the invariant from outside
        with pytest.raises(RuntimeError):
            scheduler.grant([bid_for(packet, 1)], free, 1)


class TestWinnerTakeAll:
    def test_starts_without_full_packet_credits(self):
        scheduler, free = make_scheduler(WINNER_TAKE_ALL)
        free[0][0] = 1  # only 1 credit for a 4-flit packet
        packet = make_packet(4)
        assert len(scheduler.grant([bid_for(packet, 0)], free, 0)) == 1

    def test_lock_holds_while_streaming(self):
        scheduler, free = make_scheduler(WINNER_TAKE_ALL)
        a = make_packet(3)
        b = make_packet(3)
        scheduler.grant(
            [bid_for(a, 0, in_port=0), bid_for(b, 0, in_port=1)], free, 0
        )
        grants = scheduler.grant(
            [bid_for(a, 1, in_port=0), bid_for(b, 0, in_port=1)], free, 1
        )
        assert [g[0] for g in grants] == [0]

    def test_credit_stall_unlocks_and_hands_over(self):
        """WTA: a stalled streamer loses the output to a ready packet."""
        scheduler, free = make_scheduler(WINNER_TAKE_ALL)
        a = make_packet(4)
        b = make_packet(2)
        free[0][0] = 8
        free[0][1] = 8
        scheduler.grant([bid_for(a, 0, in_port=0, out_vc=0)], free, 0)
        free[0][0] = 0  # a's VC runs out of credits
        grants = scheduler.grant(
            [bid_for(a, 1, in_port=0, out_vc=0),
             bid_for(b, 0, in_port=1, out_vc=1)], free, 1
        )
        assert [g[0] for g in grants] == [1]
        assert scheduler.locked_owner(0) == (1, 0)

    def test_upstream_gap_unlocks(self):
        scheduler, free = make_scheduler(WINNER_TAKE_ALL)
        a = make_packet(3)
        b = make_packet(1)
        scheduler.grant([bid_for(a, 0, in_port=0)], free, 0)
        # Owner absent this cycle: B takes over immediately.
        grants = scheduler.grant([bid_for(b, 0, in_port=1)], free, 1)
        assert [g[0] for g in grants] == [1]


class TestGeneralBehaviour:
    def test_one_grant_per_output(self):
        scheduler, free = make_scheduler(FLIT_BUFFER)
        bids = [
            bid_for(make_packet(1), 0, in_port=i, out_port=i % 2)
            for i in range(4)
        ]
        grants = scheduler.grant(bids, free, 0)
        assert len(grants) == 2
        assert {g[2].out_port for g in grants} == {0, 1}

    def test_full_input_speedup(self):
        """Two VCs of the same input port can win different outputs."""
        scheduler, free = make_scheduler(FLIT_BUFFER)
        bids = [
            bid_for(make_packet(1), 0, in_port=0, in_vc=0, out_port=0),
            bid_for(make_packet(1), 0, in_port=0, in_vc=1, out_port=1),
        ]
        grants = scheduler.grant(bids, free, 0)
        assert len(grants) == 2

    def test_single_flit_packets_behave_identically_across_modes(self):
        """The paper's observation: with 1-flit messages the three
        techniques all act the same."""
        histories = {}
        for mode in (FLIT_BUFFER, PACKET_BUFFER, WINNER_TAKE_ALL):
            scheduler, free = make_scheduler(mode)
            history = []
            packets = {0: make_packet(1), 1: make_packet(1), 2: make_packet(1)}
            pending = dict(packets)
            for cycle in range(6):
                bids = [
                    bid_for(p, 0, in_port=port)
                    for port, p in pending.items()
                ]
                grants = scheduler.grant(bids, free, cycle)
                for g in grants:
                    history.append(g[0])
                    del pending[g[0]]
                if not pending:
                    break
            histories[mode] = history
        assert histories[FLIT_BUFFER] == histories[PACKET_BUFFER]
        assert histories[FLIT_BUFFER] == histories[WINNER_TAKE_ALL]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("bogus")

    def test_empty_schedule(self):
        scheduler, free = make_scheduler(FLIT_BUFFER)
        assert scheduler.grant([], free, 0) == []
