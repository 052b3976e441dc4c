"""Network primitives: flits, packets, messages, channels, credits,
interfaces, and the Network base class."""

from repro.net.buffer import BufferOverrunError
from repro.net.channel import Channel, ChannelError, CreditChannel
from repro.net.credit import Credit, CreditError
from repro.net.device import PortedDevice, WiringError
from repro.net.flit import Flit
from repro.net.interface import Interface, InterfaceError, StandardInterface
from repro.net.message import Message
from repro.net.network import Network, NetworkError, wire
from repro.net.packet import Packet

__all__ = [
    "BufferOverrunError",
    "Channel",
    "ChannelError",
    "Credit",
    "CreditChannel",
    "CreditError",
    "Flit",
    "Interface",
    "InterfaceError",
    "Message",
    "Network",
    "NetworkError",
    "Packet",
    "PortedDevice",
    "StandardInterface",
    "WiringError",
    "wire",
]
