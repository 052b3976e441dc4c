"""The Blast application: steady-state background traffic (paper §IV-A).

Blast injects at a constant rate through all four workload phases until
it receives the Kill command.  Its timeline (Fig. 5):

* **Warming**: injects unsampled traffic for ``warmup_duration`` ticks,
  then signals Ready.
* **Generating**: flags generated messages as sampled.  If
  ``generate_duration`` is positive, Complete is signalled after that
  long; with 0 Blast signals Complete immediately -- "it does not care
  how long the sampling lasts" -- and some other application (e.g.
  Pulse) determines the window.
* **Finishing**: stops flagging traffic but keeps injecting at the same
  constant rate; once every sampled message has exited the network it
  signals Done.
* **Draining**: stops injecting on Kill.
"""

from __future__ import annotations

from repro import factory
from repro.config.settings import Settings
from repro.config.spec import KeySpec
from repro.core.event import Event
from repro.net.message import Message
from repro.net.phases import EPS_CONTROL
from repro.workload.application import Application


@factory.register(Application, "blast")
class BlastApplication(Application):
    """Constant-rate traffic with a sampled measurement window.

    Extra settings:
        ``warmup_duration`` -- ticks of unsampled warmup (0: Ready
            immediately).  In ``auto`` mode this is the hard cap.
        ``generate_duration`` -- ticks of sampled generation before
            signalling Complete (0: Complete immediately after Start).
        ``warmup_mode`` -- ``"fixed"`` signals Ready after
            ``warmup_duration``; ``"auto"`` detects steady state by
            watching the delivered-message mean latency over consecutive
            ``warmup_check_period``-tick windows and signalling Ready
            once it stops drifting by more than ``warmup_tolerance``
            (relative) for two consecutive checks.
    """

    SETTINGS = {
        "warmup_duration": KeySpec("uint", 0),
        "generate_duration": KeySpec("uint", 0),
        "warmup_mode": KeySpec("str", "fixed", choices=("fixed", "auto")),
        "warmup_check_period": KeySpec("uint", 500, minimum=1),
        "warmup_tolerance": KeySpec("float", 0.05, minimum=0.0),
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        model = type(self)
        self.warmup_duration = self.settings.read(model, "warmup_duration")
        self.generate_duration = self.settings.read(model, "generate_duration")
        self.warmup_mode = self.settings.read(model, "warmup_mode")
        # Auto warmup detection knobs.
        self.warmup_check_period = self.settings.read(
            model, "warmup_check_period")
        self.warmup_tolerance = self.settings.read(model, "warmup_tolerance")
        self._finishing = False
        self._warmup_window_latencies = []
        self._previous_warmup_mean = None
        self._warmup_stable_checks = 0

    # -- workload command hooks --------------------------------------------------

    def on_init(self) -> None:
        if self.injection_rate > 0.0:
            self.start_terminals()
        if self.warmup_mode == "auto" and self.injection_rate > 0.0:
            # Detect steady state: mean latency over consecutive check
            # windows stops moving.  warmup_duration acts as a hard cap.
            self.schedule(self._warmup_check, self.warmup_check_period,
                          EPS_CONTROL)
        elif self.warmup_duration > 0:
            self.schedule(self._warmup_over, self.warmup_duration, EPS_CONTROL)
        else:
            self.ready()

    def _warmup_over(self, event: Event) -> None:
        self.ready()

    def _warmup_check(self, event: Event) -> None:
        latencies = self._warmup_window_latencies
        self._warmup_window_latencies = []
        # warmup_duration caps auto-detection; without one, a generous
        # default cap guarantees the warming phase always terminates.
        cap = self.warmup_duration or 100 * self.warmup_check_period
        hit_cap = self.simulator.tick >= cap
        if latencies:
            mean = sum(latencies) / len(latencies)
            previous = self._previous_warmup_mean
            self._previous_warmup_mean = mean
            if previous is not None and previous > 0:
                drift = abs(mean - previous) / previous
                if drift <= self.warmup_tolerance:
                    self._warmup_stable_checks += 1
                else:
                    self._warmup_stable_checks = 0
        if self._warmup_stable_checks >= 2 or hit_cap:
            self.ready()
        else:
            self.schedule(self._warmup_check, self.warmup_check_period,
                          EPS_CONTROL)

    def on_start(self) -> None:
        self.sampling = True
        if self.generate_duration > 0:
            self.schedule(self._generation_over, self.generate_duration, EPS_CONTROL)
        else:
            self.complete()

    def _generation_over(self, event: Event) -> None:
        self.complete()

    def on_stop(self) -> None:
        self.sampling = False
        self._finishing = True
        self._check_done()

    def on_kill(self) -> None:
        self.stop_terminals()

    # -- sharded-runtime protocol -----------------------------------------------

    shard_delivery_target = "sampled"

    @classmethod
    def shard_schedule(cls, app_config: dict):
        settings = Settings(app_config)
        if settings.read(cls, "warmup_mode") == "auto":
            return None  # Ready depends on observed latencies
        return (
            settings.read(cls, "warmup_duration"),
            settings.read(cls, "generate_duration"),
        )

    def shard_force_done(self) -> None:
        self._finishing = False

    # -- Done detection -------------------------------------------------------------

    def on_message_delivered(self, message: Message) -> None:
        if self.workload.phase.value == "warming" and self.warmup_mode == "auto":
            latency = message.latency()
            if latency is not None:
                self._warmup_window_latencies.append(latency)
        if self._finishing and message.sampled:
            self._check_done()

    def _check_done(self) -> None:
        if self._finishing and self.sampled_delivered >= self.sampled_created:
            self._finishing = False
            self.done()
