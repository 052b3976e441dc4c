"""Deliberately shard-unsafe model classes, one per S-rule.

Mutation fixtures for the shard-purity analyzer
(:mod:`repro.lint.shard_rules`): each class commits exactly one
category of shard-isolation sin, so the tests can assert rule-by-rule
that every S-rule actually fires on the hazard it documents -- and
that :func:`repro.partition.runtime.validate_sharded_scope` rejects
these models by *verdict*, not by name (none of the names below appear
on any list anywhere in the runtime).

The classes are registered with the factory at import time but never
instantiated; they only need to be statically plausible.
"""

from __future__ import annotations

import itertools
from typing import List

from repro import factory
from repro.net.message import Message
from repro.workload.application import Application

#: module-level id counter and event log: per-process state that S004
#: must catch when a handler path touches it.
_PACKET_SERIALS = itertools.count(0)
_DELIVERY_LOG: List[int] = []


@factory.register(Application, "delivery_gated_app")
class DeliveryGatedApplication(Application):
    """S002: signals Complete from locally observed deliveries."""

    def on_init(self) -> None:
        self.ready()

    def on_start(self) -> None:
        self.sampling = True

    def on_stop(self) -> None:
        self.sampling = False

    def on_kill(self) -> None:
        self.stop_terminals()

    def on_message_delivered(self, message: Message) -> None:
        if self.messages_delivered >= self.messages_created:
            self.complete()


@factory.register(Application, "network_snoop_app")
class NetworkSnoopApplication(Application):
    """S003: walks the whole-network router registry from a handler."""

    def on_init(self) -> None:
        self.ready()

    def on_start(self) -> None:
        self.sampling = True
        backlog = sum(
            router.num_vcs for router in self.network.routers
        )
        self._observed_backlog = backlog

    def on_stop(self) -> None:
        self.sampling = False

    def on_kill(self) -> None:
        self.stop_terminals()


@factory.register(Application, "module_state_app")
class ModuleStateApplication(Application):
    """S004: draws module-level ids and appends to a module log."""

    def on_init(self) -> None:
        self.ready()

    def on_start(self) -> None:
        self.sampling = True

    def on_stop(self) -> None:
        self.sampling = False

    def on_kill(self) -> None:
        self.stop_terminals()

    def message_generated(self, message: Message) -> None:
        super().message_generated(message)
        message.serial = next(_PACKET_SERIALS)
        _DELIVERY_LOG.append(message.message_id)


@factory.register(Application, "rng_on_delivery_app")
class RngOnDeliveryApplication(Application):
    """S005: draws from an RNG stream on the delivery path."""

    def on_init(self) -> None:
        self.ready()

    def on_start(self) -> None:
        self.sampling = True

    def on_stop(self) -> None:
        self.sampling = False

    def on_kill(self) -> None:
        self.stop_terminals()

    def on_message_delivered(self, message: Message) -> None:
        self._last_jitter = self.random.random()
