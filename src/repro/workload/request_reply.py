"""The RequestReply application: transaction-oriented traffic.

SuperSim groups messages into *transactions* for request/response style
workloads (ssparse reports latency at packet, message, and transaction
granularity, §V).  This application exercises that layer: each terminal
issues request messages; the receiving terminal immediately answers
with a response message carrying the same transaction id; the
transaction completes when the response reaches the original requester.

Transaction latency (request creation to response delivery) is the
round-trip metric memory-semantic and RPC fabrics care about -- it is
what ssparse's transaction aggregation reports.

Lifecycle: like Blast, requests are generated at a constant rate
through all phases until Kill; requests created during the generating
phase are sampled.  Complete is signalled after ``generate_duration``;
Done once every sampled transaction has closed.
"""

from __future__ import annotations

from typing import Dict

from repro import factory
from repro.config.spec import KeySpec
from repro.core.event import Event
from repro.net.message import Message
from repro.net.phases import EPS_CONTROL, EPS_GENERATE
from repro.workload.application import Application, Terminal
from repro.workload.blast import BlastApplication


class RequestReplyTerminal(Terminal):
    """Issues requests and answers incoming requests with responses."""

    def create_message(self) -> Message:
        message = super().create_message()
        message.opaque = "request"
        return message

    def send_response(self, request: Message) -> None:
        application = self.application
        response = Message(
            next(application.network.message_ids),
            application.application_id,
            self.terminal_id,
            request.source,
            application.response_size,
            transaction_id=request.transaction_id,
        )
        response.created_tick = self.simulator.tick
        response.sampled = request.sampled
        response.opaque = "response"
        self.interface.send_message(response)
        application.message_generated(response)


@factory.register(Application, "request_reply")
class RequestReplyApplication(Application):
    """Request/response transactions at a constant request rate.

    Extra settings:
        ``response_size`` -- response message size in flits (absent:
            the request size distribution's mean, rounded).
        ``warmup_duration`` / ``generate_duration`` -- as in Blast.
    """

    SETTINGS = {
        "response_size": KeySpec("uint", None, minimum=1),
        "warmup_duration": BlastApplication.SETTINGS["warmup_duration"],
        "generate_duration": BlastApplication.SETTINGS["generate_duration"],
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        model = type(self)
        self.response_size = (self.settings.read(model, "response_size")
                              or max(1, round(self.size_distribution.mean())))
        self.warmup_duration = self.settings.read(model, "warmup_duration")
        self.generate_duration = self.settings.read(model, "generate_duration")
        self._finishing = False
        # transaction id -> request creation tick (open transactions).
        self._open: Dict[int, int] = {}
        self.transactions_opened = 0
        self.transactions_closed = 0
        self.sampled_transactions_opened = 0
        self.sampled_transactions_closed = 0
        #: (latency, sampled) per closed transaction.
        self.transaction_latencies = []

    def _build_terminal(self, terminal_id: int) -> Terminal:
        return RequestReplyTerminal(
            self.simulator, f"terminal{terminal_id}", self, terminal_id, self
        )

    # -- workload command hooks ---------------------------------------------------

    def on_init(self) -> None:
        if self.injection_rate > 0.0:
            self.start_terminals()
        if self.warmup_duration > 0:
            self.schedule(lambda e: self.ready(), self.warmup_duration,
                          EPS_CONTROL)
        else:
            self.ready()

    def on_start(self) -> None:
        self.sampling = True
        if self.generate_duration > 0:
            self.schedule(lambda e: self.complete(), self.generate_duration,
                          EPS_CONTROL)
        else:
            self.complete()

    def on_stop(self) -> None:
        self.sampling = False
        self._finishing = True
        self._check_done()

    def on_kill(self) -> None:
        self.stop_terminals()

    # -- transaction bookkeeping -----------------------------------------------------

    def message_generated(self, message: Message) -> None:
        super().message_generated(message)
        if message.opaque == "request":
            self._open[message.transaction_id] = message.created_tick
            self.transactions_opened += 1
            if message.sampled:
                self.sampled_transactions_opened += 1

    def on_message_delivered(self, message: Message) -> None:
        if message.opaque == "request":
            # Answer from the destination terminal, next epsilon.
            responder = self.terminals[message.destination]
            self.schedule(
                lambda e, m=message: responder.send_response(m),
                0,
                epsilon=EPS_GENERATE,
            )
        elif message.opaque == "response":
            opened_tick = self._open.pop(message.transaction_id, None)
            if opened_tick is None:
                raise RuntimeError(
                    f"{self.full_name}: response for unknown transaction "
                    f"{message.transaction_id}"
                )
            self.transactions_closed += 1
            latency = self.simulator.tick - opened_tick
            self.transaction_latencies.append((latency, message.sampled))
            if message.sampled:
                self.sampled_transactions_closed += 1
            self._check_done()

    def _check_done(self) -> None:
        if (
            self._finishing
            and self.sampled_transactions_closed
            >= self.sampled_transactions_opened
        ):
            self._finishing = False
            self.done()

    # -- analysis helpers --------------------------------------------------------------

    def sampled_transaction_latencies(self):
        return [lat for lat, sampled in self.transaction_latencies if sampled]
