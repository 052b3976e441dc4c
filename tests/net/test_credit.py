"""Credit accounting invariants (§IV-D: credits never go negative,
buffers never silently overrun), through ``PortedDevice.take_credit``
and ``give_credit`` on a device whose output credits are wired."""

import pytest

from repro.core.simulator import Simulator
from repro.net.credit import Credit, CreditError
from repro.net.device import PortedDevice, WiringError


def wired(capacities, num_ports=2):
    """A device of ``num_ports`` ports whose port 1 holds ``capacities``
    credits (one per VC); port 0 stays unwired."""
    device = PortedDevice(Simulator(), "dev", None, num_ports, len(capacities))
    device.init_output_credits(1, capacities)
    return device


def credits(device, port, vc):
    return device._credits[port * device.num_vcs + vc]


def occupancy(device, port, vc):
    o = port * device.num_vcs + vc
    return device._credit_capacity[o] - device._credits[o]


def test_initial_credits_equal_capacity():
    device = wired([4, 8])
    assert credits(device, 1, 0) == 4
    assert credits(device, 1, 1) == 8
    assert occupancy(device, 1, 0) == occupancy(device, 1, 1) == 0
    # Flat per output VC o = port * num_vcs + vc; port 0 is unwired.
    assert device._credits == [0, 0, 4, 8]
    assert device._credit_capacity == [0, 0, 4, 8]


def test_take_and_give_round_trip():
    device = wired([2, 2])
    device.take_credit(1, 0)
    assert credits(device, 1, 0) == 1
    assert occupancy(device, 1, 0) == 1
    assert credits(device, 1, 1) == 2  # the other VC is untouched
    device.give_credit(1, 0)
    assert credits(device, 1, 0) == 2
    assert occupancy(device, 1, 0) == 0


def test_underflow_raises():
    device = wired([1])
    device.take_credit(1, 0)
    with pytest.raises(CreditError, match=r"dev\.out1: credit underflow on VC 0"):
        device.take_credit(1, 0)
    assert credits(device, 1, 0) == 0


def test_overflow_raises():
    device = wired([1])
    with pytest.raises(CreditError, match=r"dev\.out1: credit overflow on VC 0"):
        device.give_credit(1, 0)
    assert credits(device, 1, 0) == 1


def test_unwired_port_has_no_credits():
    device = wired([1])
    with pytest.raises(WiringError, match="port 0 has no credits"):
        device.take_credit(0, 0)
    with pytest.raises(CreditError):
        device.give_credit(0, 0)


def test_invalid_construction():
    device = PortedDevice(Simulator(), "dev", None, 1, 1)
    with pytest.raises(ValueError):
        device.init_output_credits(0, [0])
    assert device._credit_capacity == [0]


def test_capacities_must_match_num_vcs():
    """A flat list would spill a port's surplus VCs into the next
    port's slots, so the length is checked."""
    device = PortedDevice(Simulator(), "dev", None, 2, 2)
    for capacities in ([], [4], [4, 4, 4]):
        with pytest.raises(WiringError, match=f"{len(capacities)} VCs"):
            device.init_output_credits(0, capacities)
    assert device._credit_capacity == [0, 0, 0, 0]


def test_port_must_exist():
    device = PortedDevice(Simulator(), "dev", None, 2, 2)
    for port in (-1, 2):
        with pytest.raises(WiringError, match=f"no port {port}"):
            device.init_output_credits(port, [4, 4])
    assert device._credit_capacity == [0, 0, 0, 0]


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
