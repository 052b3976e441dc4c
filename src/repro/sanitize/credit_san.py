"""CreditSan: per-link, per-VC credit conservation.

The paper's case-study bug class is the *credit accounting gap*: a model
that leaks (or double-returns) credits type-checks and runs, and the
network limps along at reduced throughput -- no assertion trips, the
results are just quietly wrong.  The built-in credit checks
(``PortedDevice.take_credit``/``give_credit``) see only local bounds
(never negative, never above capacity); a credit that is simply *never
sent* satisfies both forever.

CreditSan closes the loop around each directed link.  For the link from
device ``u`` port ``p`` to device ``d`` port ``q``, with flit channel
``F``, returning credit channel ``C``, and ``u``'s credits on output VC
``o = p * num_vcs + vc`` (sized from ``d``'s input buffer), where
``T(vc) = u._credit_capacity[o] - u._credits[o]`` is the number of
slots ``u`` believes are consumed, conservation demands at all times::

    T(vc) == claimed(vc)                 # taken, not yet on F
             + flits in flight on F carrying vc
             + d.input_occupancy(q, vc)
             + credits in flight on C for vc

i.e. every slot the sender believes is consumed downstream is accounted
for by a prepaid flit still inside the sender (the IQ router takes the
credit at crossbar grant, ``core_latency`` + staging cycles before the
flit reaches the wire), a flit on the wire, a buffered flit, or a
credit on its way home.

The four terms move only inside six shimmed methods
(``PortedDevice.take_credit``/``give_credit``,
``Channel.send_flit``/``_deliver_item``,
``CreditChannel.send_credit``/``_deliver_item``), and the equation is
checked after each of them -- the exact instants at which it is stable,
because devices mutate credit/buffer/channel state atomically within
one handler.  :meth:`finish` sweeps every link once more, catching
leaks on links that went quiet (all terms must still balance, and at
quiescence they must all be zero).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import factory
from repro.net.channel import Channel, CreditChannel
from repro.net.device import PortedDevice
from repro.sanitize.base import MethodPatch, Sanitizer


class _Link:
    """State for one directed link (flit channel + returning credits)."""

    __slots__ = (
        "name",
        "upstream",
        "first",
        "downstream",
        "down_port",
        "claimed",
        "inflight_flits",
        "inflight_credits",
    )

    def __init__(self, name, upstream, port, downstream, down_port):
        num_vcs = upstream.num_vcs
        self.name = name
        self.upstream = upstream
        self.first = port * num_vcs  # the output VC index of VC 0
        self.downstream = downstream
        self.down_port = down_port
        self.claimed: List[int] = [0] * num_vcs
        self.inflight_flits: List[int] = [0] * num_vcs
        self.inflight_credits: List[int] = [0] * num_vcs


@factory.register(Sanitizer, "credit")
class CreditSan(Sanitizer):
    """Credit conservation: outstanding credits == prepaid + in flight + buffered."""

    name = "credit"
    description = (
        "per-link/per-VC credit conservation: credits outstanding == "
        "prepaid flits + flits in flight + downstream buffer occupancy "
        "+ credits in flight"
    )

    def __init__(self) -> None:
        super().__init__()
        self._links: List[_Link] = []
        self._by_flit_channel: Dict[int, _Link] = {}
        self._by_credit_channel: Dict[int, _Link] = {}
        # id(device) -> its links by output port (None: not checked).
        self._by_device: Dict[int, List[Optional[_Link]]] = {}

    def _install(self, simulation) -> None:
        network = simulation.network
        for device in [*network.routers, *network.interfaces]:
            for port in range(device.num_ports):
                flit_channel = device._flit_out[port]
                if flit_channel is None:
                    continue
                downstream = flit_channel.sink
                down_port = flit_channel.sink_port
                credit_channel = downstream._credit_out[down_port]
                # Cut links of a partitioned (sharded) run: the flit or
                # credit flow crosses a shard boundary through proxy
                # endpoints, so one side of the conservation equation is
                # invisible here.  The shard runtime checks those links
                # by record-count conservation and quiescent-drain
                # occupancy instead; intra-shard links stay fully
                # accounted.
                if getattr(flit_channel, "shard_proxy", False) or getattr(
                    credit_channel, "shard_proxy", False
                ):
                    continue
                link = _Link(
                    f"{device.full_name}.out{port} -> "
                    f"{downstream.full_name}.in{down_port}",
                    device,
                    port,
                    downstream,
                    down_port,
                )
                self._links.append(link)
                self._by_flit_channel[id(flit_channel)] = link
                self._by_credit_channel[id(credit_channel)] = link
                self._by_device.setdefault(
                    id(device), [None] * device.num_ports
                )[port] = link

        by_flit = self._by_flit_channel
        by_credit = self._by_credit_channel
        by_device = self._by_device
        check = self._check

        def wrap_take_credit(original):
            def take_credit(device, port, vc):
                original(device, port, vc)
                links = by_device.get(id(device))
                link = links[port] if links is not None else None
                if link is not None:
                    link.claimed[vc] += 1
                    check(link, vc)

            return take_credit

        def wrap_give_credit(original):
            def give_credit(device, port, vc):
                original(device, port, vc)
                links = by_device.get(id(device))
                link = links[port] if links is not None else None
                if link is not None:
                    check(link, vc)

            return give_credit

        def wrap_send_flit(original):
            def send_flit(channel, flit):
                original(channel, flit)
                link = by_flit.get(id(channel))
                if link is not None:
                    link.claimed[flit.vc] -= 1
                    link.inflight_flits[flit.vc] += 1
                    check(link, flit.vc)

            return send_flit

        def wrap_deliver_flit(original):
            # `_deliver_item` is the per-item landing hook, so the
            # accounting below is per flit regardless of how many land
            # in one landing phase.
            def _deliver_item(channel, flit):
                link = by_flit.get(id(channel))
                if link is None:
                    original(channel, flit)
                    return
                vc = flit.vc
                # Decrement *before* delivering: the receive handler may
                # itself send a credit (the standard interface does), and
                # that nested check must already see this flit as landed.
                link.inflight_flits[vc] -= 1
                original(channel, flit)
                check(link, vc)

            return _deliver_item

        def wrap_send_credit(original):
            def send_credit(channel, credit):
                original(channel, credit)
                link = by_credit.get(id(channel))
                if link is not None:
                    link.inflight_credits[credit.vc] += 1
                    check(link, credit.vc)

            return send_credit

        def wrap_deliver_credit(original):
            def _deliver_item(channel, credit):
                link = by_credit.get(id(channel))
                if link is None:
                    original(channel, credit)
                    return
                vc = credit.vc
                link.inflight_credits[vc] -= 1
                original(channel, credit)
                check(link, vc)

            return _deliver_item

        self._patches = [
            MethodPatch(PortedDevice, "take_credit", wrap_take_credit),
            MethodPatch(PortedDevice, "give_credit", wrap_give_credit),
            MethodPatch(Channel, "send_flit", wrap_send_flit),
            MethodPatch(Channel, "_deliver_item", wrap_deliver_flit),
            MethodPatch(CreditChannel, "send_credit", wrap_send_credit),
            MethodPatch(CreditChannel, "_deliver_item", wrap_deliver_credit),
        ]

    def _check(self, link: _Link, vc: int) -> None:
        self.checks += 1
        upstream = link.upstream
        o = link.first + vc
        outstanding = upstream._credit_capacity[o] - upstream._credits[o]
        claimed = link.claimed[vc]
        on_wire = link.inflight_flits[vc]
        buffered = link.downstream.input_occupancy(link.down_port, vc)
        returning = link.inflight_credits[vc]
        if claimed < 0 or on_wire < 0 or returning < 0:
            self.violation(
                f"link {link.name} VC {vc}: negative in-flight count "
                f"(prepaid {claimed}, flits in flight {on_wire}, credits "
                f"in flight {returning}); a flit or credit crossed the "
                f"link without going through the channel/credit API"
            )
        if outstanding != claimed + on_wire + buffered + returning:
            self.violation(
                f"credit accounting gap on link {link.name} VC {vc}: "
                f"sender believes {outstanding} slots are consumed, but "
                f"{claimed} prepaid + {on_wire} flits in flight + "
                f"{buffered} buffered downstream + {returning} credits "
                f"in flight = {claimed + on_wire + buffered + returning}; "
                f"a model leaked or duplicated a credit outside "
                f"take_credit()/give_credit()"
            )

    def finish(self) -> None:
        for link in self._links:
            for vc in range(len(link.claimed)):
                self._check(link, vc)

    def report(self):
        return {"checks": self.checks, "links": len(self._links)}
