"""CreditSan: per-link, per-VC credit conservation.

The paper's case-study bug class is the *credit accounting gap*: a model
that leaks (or double-returns) credits type-checks and runs, and the
network limps along at reduced throughput -- no assertion trips, the
results are just quietly wrong.  The built-in :class:`CreditTracker`
checks only its local bounds (never negative, never above capacity);
a credit that is simply *never sent* satisfies both forever.

CreditSan closes the loop around each directed link.  For the link from
device ``u`` port ``p`` to device ``d`` port ``q``, with flit channel
``F``, returning credit channel ``C``, and ``u``'s credit tracker ``T``
(sized from ``d``'s input buffer), conservation demands at all times::

    T.occupancy(vc) == claimed(vc)               # taken, not yet on F
                       + flits in flight on F carrying vc
                       + d.input_occupancy(q, vc)
                       + credits in flight on C for vc

i.e. every slot the sender believes is consumed downstream is accounted
for by a prepaid flit still inside the sender (the IQ router takes the
credit at crossbar grant, ``core_latency`` + staging cycles before the
flit reaches the wire), a flit on the wire, a buffered flit, or a
credit on its way home.

The four terms move only inside six shimmed methods
(``CreditTracker.take``/``give``, ``Channel.send_flit``/``_deliver_item``,
``CreditChannel.send_credit``/``_deliver_item``), and the equation is
checked after each of them -- the exact instants at which it is stable,
because devices mutate tracker/buffer/channel state atomically within
one handler.  :meth:`finish` sweeps every link once more, catching
leaks on links that went quiet (all terms must still balance, and at
quiescence they must all be zero).
"""

from __future__ import annotations

from typing import Dict, List

from repro import factory
from repro.net.channel import Channel, CreditChannel
from repro.net.credit import CreditTracker
from repro.sanitize.base import MethodPatch, Sanitizer


class _Link:
    """State for one directed link (flit channel + returning credits)."""

    __slots__ = (
        "name",
        "tracker",
        "downstream",
        "down_port",
        "claimed",
        "inflight_flits",
        "inflight_credits",
    )

    def __init__(self, name, tracker, downstream, down_port, num_vcs):
        self.name = name
        self.tracker = tracker
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
        self._by_tracker: Dict[int, _Link] = {}

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
                tracker = device._output_credits[port]
                link = _Link(
                    f"{device.full_name}.out{port} -> "
                    f"{downstream.full_name}.in{down_port}",
                    tracker,
                    downstream,
                    down_port,
                    tracker.num_vcs,
                )
                self._links.append(link)
                self._by_flit_channel[id(flit_channel)] = link
                self._by_credit_channel[id(credit_channel)] = link
                self._by_tracker[id(tracker)] = link

        by_flit = self._by_flit_channel
        by_credit = self._by_credit_channel
        by_tracker = self._by_tracker
        check = self._check

        def wrap_take(original):
            def take(tracker, vc, count=1):
                original(tracker, vc, count)
                link = by_tracker.get(id(tracker))
                if link is not None:
                    link.claimed[vc] += count
                    check(link, vc)

            return take

        def wrap_give(original):
            def give(tracker, vc, count=1):
                original(tracker, vc, count)
                link = by_tracker.get(id(tracker))
                if link is not None:
                    check(link, vc)

            return give

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
            MethodPatch(CreditTracker, "take", wrap_take),
            MethodPatch(CreditTracker, "give", wrap_give),
            MethodPatch(Channel, "send_flit", wrap_send_flit),
            MethodPatch(Channel, "_deliver_item", wrap_deliver_flit),
            MethodPatch(CreditChannel, "send_credit", wrap_send_credit),
            MethodPatch(CreditChannel, "_deliver_item", wrap_deliver_credit),
        ]

    def _check(self, link: _Link, vc: int) -> None:
        self.checks += 1
        outstanding = link.tracker.occupancy(vc)
        claimed = link.claimed[vc]
        on_wire = link.inflight_flits[vc]
        buffered = link.downstream.input_occupancy(link.down_port, vc)
        returning = link.inflight_credits[vc]
        if claimed < 0 or on_wire < 0 or returning < 0:
            self.violation(
                f"link {link.name} VC {vc}: negative in-flight count "
                f"(prepaid {claimed}, flits in flight {on_wire}, credits "
                f"in flight {returning}); a flit or credit crossed the "
                f"link without going through the channel/tracker API"
            )
        if outstanding != claimed + on_wire + buffered + returning:
            self.violation(
                f"credit accounting gap on link {link.name} VC {vc}: "
                f"sender believes {outstanding} slots are consumed, but "
                f"{claimed} prepaid + {on_wire} flits in flight + "
                f"{buffered} buffered downstream + {returning} credits "
                f"in flight = {claimed + on_wire + buffered + returning}; "
                f"a model leaked or duplicated a credit outside the "
                f"repro.net.credit API"
            )

    def finish(self) -> None:
        for link in self._links:
            for vc in range(link.tracker.num_vcs):
                self._check(link, vc)

    def report(self):
        return {"checks": self.checks, "links": len(self._links)}
