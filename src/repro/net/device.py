"""PortedDevice: the wiring contract shared by routers and interfaces.

A *port* is a bidirectional attachment point: each port has an outgoing
flit channel (paired with an incoming credit channel that returns
credits for the flits we send) and an incoming flit channel (paired with
an outgoing credit channel that returns credits for the flits we
receive).  The :func:`wire` helper in :mod:`repro.net.network` connects
two ports with all four channels.

Concrete devices implement ``receive_flit`` / ``receive_credit`` and use
``send_flit`` / ``send_credit`` to obey flow control.  Output credits
mirror the downstream input buffers in two flat lists indexed by output
VC ``o = port * num_vcs + vc``: ``_credits`` (available) and
``_credit_capacity`` (0 on a port not wired yet).  :meth:`take_credit`
and :meth:`give_credit` are the only code that checks their bounds
(the paper's §IV-D "credits never go negative" and never exceed the
buffer); hot paths may read the lists and increment below capacity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.component import Component
from repro.net.channel import Channel, CreditChannel
from repro.net.credit import Credit, CreditError
from repro.net.flit import Flit

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simulator import Simulator


class WiringError(RuntimeError):
    """Raised when a device's ports are wired inconsistently."""


class PortedDevice(Component):
    """Base class for any device with flow-controlled bidirectional ports."""

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        parent: Optional[Component],
        num_ports: int,
        num_vcs: int,
    ):
        super().__init__(simulator, name, parent)
        if num_ports < 1:
            raise ValueError(f"device needs at least 1 port, got {num_ports}")
        if num_vcs < 1:
            raise ValueError(f"device needs at least 1 VC, got {num_vcs}")
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self._flit_out: List[Optional[Channel]] = [None] * num_ports
        self._credit_out: List[Optional[CreditChannel]] = [None] * num_ports
        num_outputs = num_ports * num_vcs
        self._credits: List[int] = [0] * num_outputs
        self._credit_capacity: List[int] = [0] * num_outputs
        # Interned credit singletons by VC, resolved once per device so
        # the credit-return hot path skips the Credit.of classmethod.
        self._credit_of = [Credit.of(vc) for vc in range(num_vcs)]

    # -- wiring (called by repro.net.network.wire) ---------------------------

    def set_flit_channel_out(self, port: int, channel: Channel) -> None:
        if self._flit_out[port] is not None:
            raise WiringError(f"{self.full_name}: port {port} flit-out already wired")
        self._flit_out[port] = channel

    def set_credit_channel_out(self, port: int, channel: CreditChannel) -> None:
        if self._credit_out[port] is not None:
            raise WiringError(f"{self.full_name}: port {port} credit-out already wired")
        self._credit_out[port] = channel

    def init_output_credits(self, port: int, capacities: List[int]) -> None:
        """Size ``port``'s output credits from the downstream input buffer."""
        num_vcs = self.num_vcs
        if not 0 <= port < self.num_ports:
            raise WiringError(f"{self.full_name}: no port {port}")
        if len(capacities) != num_vcs:
            # A flat list would spill the surplus into the next port.
            raise WiringError(
                f"{self.full_name}: port {port} credits for "
                f"{len(capacities)} VCs, device has {num_vcs}"
            )
        first = port * num_vcs
        if self._credit_capacity[first]:
            raise WiringError(f"{self.full_name}: port {port} credits already set")
        for vc, cap in enumerate(capacities):
            if cap < 1:
                raise ValueError(f"VC {vc} capacity must be >= 1, got {cap}")
        self._credit_capacity[first:first + num_vcs] = capacities
        self._credits[first:first + num_vcs] = capacities

    def port_is_wired(self, port: int) -> bool:
        return self._flit_out[port] is not None

    # -- the flow-control contract ------------------------------------------------

    def input_buffer_capacities(self, port: int) -> List[int]:
        """Per-VC capacity of this device's input buffer at ``port``.

        The wiring helper calls this to size the upstream device's credits.
        """
        raise NotImplementedError

    def input_occupancy(self, port: int, vc: int) -> int:
        """Flits currently held in this device's input buffer at
        ``(port, vc)``.

        Devices that consume flits the instant they arrive (the standard
        interface's ejection path returns the credit immediately) keep
        the default of ``0``; routers override this with their real
        input-buffer occupancy.  ``repro.sanitize.CreditSan`` uses it to
        close the per-link credit conservation equation.
        """
        return 0

    def receive_flit(self, port: int, flit: Flit) -> None:
        """A flit arrived on the incoming channel of ``port``."""
        raise NotImplementedError

    def receive_credit(self, port: int, credit: Credit) -> None:
        """A credit arrived: downstream freed a slot on ``credit.vc``."""
        raise NotImplementedError

    # -- helpers for subclasses ----------------------------------------------------

    def output_channel(self, port: int) -> Channel:
        channel = self._flit_out[port]
        if channel is None:
            raise WiringError(f"{self.full_name}: port {port} has no flit-out channel")
        return channel

    def take_credit(self, port: int, vc: int) -> None:
        """Consume one credit on output VC ``(port, vc)``: a flit was sent."""
        o = port * self.num_vcs + vc
        credits = self._credits
        if credits[o] < 1:
            if not self._credit_capacity[o]:
                raise WiringError(f"{self.full_name}: port {port} has no credits")
            raise CreditError(
                f"{self.full_name}.out{port}: credit underflow on VC {vc}: "
                f"{credits[o]} available, 1 requested"
            )
        credits[o] -= 1

    def give_credit(self, port: int, vc: int) -> None:
        """Restore one credit on output VC ``(port, vc)``: a downstream
        slot freed."""
        o = port * self.num_vcs + vc
        credits = self._credits
        if credits[o] >= self._credit_capacity[o]:
            raise CreditError(
                f"{self.full_name}.out{port}: credit overflow on VC {vc}: "
                f"{credits[o]}+1 > capacity {self._credit_capacity[o]}"
            )
        credits[o] += 1

    def send_flit(self, port: int, flit: Flit) -> None:
        """Transmit a flit on ``port``, consuming one downstream credit."""
        self.take_credit(port, flit.vc)
        self.output_channel(port).send_flit(flit)

    def send_credit(self, port: int, vc: int) -> None:
        """Return one credit upstream for a flit consumed at input ``port``."""
        channel = self._credit_out[port]
        if channel is None:
            raise WiringError(f"{self.full_name}: port {port} has no credit-out channel")
        channel.send_credit(self._credit_of[vc])
