"""Credit accounting invariants (§IV-D: credits never go negative,
buffers never silently overrun)."""

import pytest

from repro.net.credit import Credit, CreditError, CreditTracker


def test_initial_credits_equal_capacity():
    tracker = CreditTracker([4, 8])
    assert tracker.num_vcs == 2
    assert tracker.available(0) == 4
    assert tracker.available(1) == 8
    assert tracker.capacity(0) == 4
    assert tracker.total_capacity() == 12
    assert tracker.total_available() == 12


def test_take_and_give_round_trip():
    tracker = CreditTracker([2])
    tracker.take(0)
    assert tracker.available(0) == 1
    assert tracker.occupancy(0) == 1
    tracker.give(0)
    assert tracker.available(0) == 2
    assert tracker.occupancy(0) == 0


def test_underflow_raises():
    tracker = CreditTracker([1])
    tracker.take(0)
    with pytest.raises(CreditError):
        tracker.take(0)


def test_overflow_raises():
    tracker = CreditTracker([1])
    with pytest.raises(CreditError):
        tracker.give(0)


def test_has_credit():
    tracker = CreditTracker([2])
    assert tracker.has_credit(0)
    assert tracker.has_credit(0, 2)
    assert not tracker.has_credit(0, 3)


def test_multi_count_take():
    tracker = CreditTracker([4])
    tracker.take(0, 3)
    assert tracker.available(0) == 1
    with pytest.raises(CreditError):
        tracker.take(0, 2)


def test_total_occupancy():
    tracker = CreditTracker([4, 4])
    tracker.take(0, 2)
    tracker.take(1, 1)
    assert tracker.total_occupancy() == 3


def test_invalid_construction():
    with pytest.raises(ValueError):
        CreditTracker([])
    with pytest.raises(ValueError):
        CreditTracker([0])


def test_credit_message():
    credit = Credit(3)
    assert credit.vc == 3
    with pytest.raises(ValueError):
        Credit(-1)


def test_credit_interning_singletons():
    # Per-VC singletons; identity is not load-bearing.
    assert Credit.of(3) is Credit.of(3)
    assert Credit.of(0).vc == 0 and Credit.of(3).vc == 3
    fresh = Credit(3)
    assert fresh is not Credit.of(3) and fresh.vc == 3
