"""The Pulse application: a temporary traffic disturbance (paper §IV-A).

Pulse idles through warming (it signals Ready immediately), then after
an optional delay injects a burst for a fixed duration during the
generating phase and signals Complete when its burst ends.  It signals
Done once every message of the burst has been delivered.  Combined with
Blast it forms the paper's canonical transient-analysis workload
(Fig. 5): Blast supplies steady sampled background traffic while Pulse
perturbs the network.
"""

from __future__ import annotations

from repro import factory
from repro.config.settings import Settings
from repro.config.spec import KeySpec
from repro.core.event import Event
from repro.net.message import Message
from repro.net.phases import EPS_CONTROL
from repro.workload.application import Application


@factory.register(Application, "pulse")
class PulseApplication(Application):
    """A fixed-duration traffic burst inside the sampling window.

    Extra settings:
        ``delay`` -- ticks after Start before the burst begins.
        ``duration`` -- burst length in ticks.
        ``num_terminals`` -- restrict the burst to the first N
            endpoints (absent: all).
    """

    SETTINGS = {
        "delay": KeySpec("uint", 0),
        "duration": KeySpec("uint", minimum=1),
        "num_terminals": KeySpec("uint", None, minimum=1),
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.delay = self.settings.read(type(self), "delay")
        self.duration = self.settings.read(type(self), "duration")
        self._bursting = False
        self._done_sent = False

    def _terminal_ids(self):
        total = self.network.num_terminals
        count = self.settings.read(type(self), "num_terminals") or total
        if count > total:
            raise ValueError(f"pulse num_terminals {count} out of range")
        return list(range(count))

    # -- workload command hooks -----------------------------------------------------

    def on_init(self) -> None:
        self.ready()  # no warming needed

    def on_start(self) -> None:
        self.sampling = True
        if self.injection_rate <= 0.0:
            self.complete()
            return
        self.schedule(self._begin_burst, max(self.delay, 1), EPS_CONTROL)

    def _begin_burst(self, event: Event) -> None:
        self._bursting = True
        self.start_terminals()
        self.schedule(self._end_burst, self.duration, EPS_CONTROL)

    def _end_burst(self, event: Event) -> None:
        self._bursting = False
        self.stop_terminals()
        self.sampling = False
        self.complete()

    def on_stop(self) -> None:
        self._check_done()

    def on_kill(self) -> None:
        self.stop_terminals()

    # -- sharded-runtime protocol -----------------------------------------------

    @classmethod
    def shard_schedule(cls, app_config: dict):
        settings = Settings(app_config)
        if settings.read(cls, "injection_rate") <= 0.0:
            return (0, 0)  # Ready at init, Complete right at Start
        # on_start schedules the burst max(delay,1) ticks out; the burst
        # runs duration ticks before _end_burst signals Complete.
        return (
            0,
            max(settings.read(cls, "delay"), 1) + settings.read(cls, "duration"),
        )

    def shard_force_done(self) -> None:
        self._done_sent = True

    # -- Done detection ---------------------------------------------------------------

    def on_message_delivered(self, message: Message) -> None:
        self._check_done()

    def _check_done(self) -> None:
        # Complete is only signalled after the burst ends, so reaching
        # the finishing phase implies no more Pulse traffic will appear.
        if self._done_sent or self._bursting:
            return
        if self.workload.phase.value != "finishing":
            return
        if self.messages_delivered >= self.messages_created:
            self._done_sent = True
            self.done()
