"""Flit buffers: FIFO order, capacity enforcement, infinite mode."""

import pytest

from repro.net.buffer import BufferOverrunError, FlitBuffer
from repro.net.message import Message


def make_flits(count):
    message = Message(0, 0, 1, count)
    packet = message.packetize(count)[0]
    return [packet.flit(i) for i in range(count)]


def test_fifo_order():
    buffer = FlitBuffer(4)
    flits = make_flits(3)
    for flit in flits:
        buffer.push(flit)
    assert [buffer.pop() for _ in range(3)] == flits


def test_front_peeks_without_removing():
    buffer = FlitBuffer(4)
    flits = make_flits(2)
    buffer.push(flits[0])
    assert buffer.front() is flits[0]
    assert len(buffer) == 1


def test_front_on_empty_is_none():
    assert FlitBuffer(2).front() is None


def test_overrun_raises():
    buffer = FlitBuffer(2)
    flits = make_flits(3)
    buffer.push(flits[0])
    buffer.push(flits[1])
    assert buffer.is_full()
    with pytest.raises(BufferOverrunError):
        buffer.push(flits[2])


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        FlitBuffer(2).pop()


def test_space_accounting():
    buffer = FlitBuffer(3)
    assert buffer.space == 3
    buffer.push(make_flits(1)[0])
    assert buffer.space == 2
    assert buffer.has_space(2)
    assert not buffer.has_space(3)


def test_infinite_buffer():
    buffer = FlitBuffer(None)
    assert buffer.infinite
    assert buffer.space is None
    for flit in make_flits(100):
        buffer.push(flit)
    assert not buffer.is_full()
    assert buffer.has_space(10**9)
    assert buffer.occupancy == 100


def test_invalid_capacity():
    with pytest.raises(ValueError):
        FlitBuffer(0)


def test_iteration_preserves_order():
    buffer = FlitBuffer(8)
    flits = make_flits(4)
    for flit in flits:
        buffer.push(flit)
    assert list(buffer) == flits
