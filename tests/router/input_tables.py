"""A router's input side without the router, for driving a
``CrossbarScheduler`` directly against a flat free-space table."""

from collections import deque


class InputTables:
    """The flat per-input-VC tables a router hands its crossbar
    scheduler, indexed by ``i = port * num_vcs + vc``."""

    def __init__(self, num_ports, num_vcs):
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        num_inputs = num_ports * num_vcs
        self._in_flits = [deque() for _ in range(num_inputs)]
        self._in_packet = [None] * num_inputs
        self._in_out_port = [-1] * num_inputs
        self._in_out_vc = [-1] * num_inputs

    def load(self, packet, first=0, in_port=0, in_vc=0, out_port=0, out_vc=0):
        """Input VC (in_port, in_vc) holds ``packet`` from flit ``first``
        on, allocated to output VC (out_port, out_vc); returns its index."""
        i = in_port * self.num_vcs + in_vc
        flits = self._in_flits[i]
        flits.clear()
        flits.extend(packet.flit(k) for k in range(first, packet.num_flits))
        self._in_packet[i] = packet
        self._in_out_port[i] = out_port
        self._in_out_vc[i] = out_vc
        return i

    def output_vc(self, out_port, out_vc):
        """The flat index ``o`` of output VC (out_port, out_vc) in the
        free-space table ``grant`` reads."""
        return out_port * self.num_vcs + out_vc

    def free_table(self, space):
        """A free-space table granting ``space`` on every output VC."""
        return [space] * (self.num_ports * self.num_vcs)

    def in_ports(self, indices):
        return [i // self.num_vcs for i in indices]

    def out_ports(self, indices):
        return [self._in_out_port[i] for i in indices]
