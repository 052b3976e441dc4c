"""Workload framework: the four-phase state machine, applications,
terminals, traffic patterns, size distributions, injection processes
(paper §IV-A)."""

from repro.workload.application import Application, Terminal
from repro.workload.blast import BlastApplication
from repro.workload.injection import InjectionProcess
from repro.workload.pulse import PulseApplication
from repro.workload.request_reply import (
    RequestReplyApplication,
    RequestReplyTerminal,
)
from repro.workload.size import MessageSizeDistribution, create_size_distribution
from repro.workload.traffic import TrafficPattern, create_traffic_pattern
from repro.workload.workload import Phase, Workload, WorkloadError

__all__ = [
    "Application",
    "BlastApplication",
    "InjectionProcess",
    "MessageSizeDistribution",
    "Phase",
    "PulseApplication",
    "RequestReplyApplication",
    "RequestReplyTerminal",
    "Terminal",
    "TrafficPattern",
    "Workload",
    "WorkloadError",
    "create_size_distribution",
    "create_traffic_pattern",
]
