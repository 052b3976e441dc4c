"""Router microarchitectures and their building blocks (paper §IV-C)."""

from repro.router.arbiter import (
    AgeBasedArbiter,
    Arbiter,
    FixedPriorityArbiter,
    RandomArbiter,
    RoundRobinArbiter,
    create_arbiter,
)
from repro.router.base import Router
from repro.router.congestion import (
    GRANULARITY_PORT,
    GRANULARITY_VC,
    SOURCE_BOTH,
    SOURCE_DOWNSTREAM,
    SOURCE_OUTPUT,
    CongestionSensor,
    CreditSensor,
)
from repro.router.crossbar_scheduler import (
    FLIT_BUFFER,
    PACKET_BUFFER,
    WINNER_TAKE_ALL,
    CrossbarScheduler,
)
from repro.router.input_output_queued import InputOutputQueuedRouter
from repro.router.input_queued import InputQueuedRouter
from repro.router.output_queued import OutputQueuedRouter

__all__ = [
    "AgeBasedArbiter",
    "Arbiter",
    "CongestionSensor",
    "CreditSensor",
    "CrossbarScheduler",
    "FixedPriorityArbiter",
    "FLIT_BUFFER",
    "GRANULARITY_PORT",
    "GRANULARITY_VC",
    "InputOutputQueuedRouter",
    "InputQueuedRouter",
    "OutputQueuedRouter",
    "PACKET_BUFFER",
    "RandomArbiter",
    "RoundRobinArbiter",
    "Router",
    "SOURCE_BOTH",
    "SOURCE_DOWNSTREAM",
    "SOURCE_OUTPUT",
    "WINNER_TAKE_ALL",
    "create_arbiter",
]
