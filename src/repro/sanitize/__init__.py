"""Runtime sanitizers: invariant checkers shimmed into a live simulation.

See ``docs/SANITIZERS.md`` for the user guide.  The built-ins:

* ``credit`` -- :class:`~repro.sanitize.credit_san.CreditSan`:
  per-link/per-VC credit conservation.
* ``flit`` -- :class:`~repro.sanitize.flit_san.FlitSan`: end-to-end
  flit conservation and wormhole stream ordering on every channel.
* ``event`` -- :class:`~repro.sanitize.event_san.EventSan`: double
  fires, stale cancels, time-field mutation.
* ``det`` -- :class:`~repro.sanitize.det_san.DetSan`: chained hash of
  the event stream for diffing two same-seed runs.

Typical use::

    from repro import Simulation, Settings
    from repro.sanitize import attach_sanitizers

    simulation = Simulation(Settings.from_file("config.json"))
    with attach_sanitizers(simulation, "all") as suite:
        simulation.run()
        suite.finish()          # end-of-run global checks
        print(suite.report())

or from the command line: ``supersim config.json --sanitize=all``.
"""

from repro.sanitize.base import (
    SANITIZER_NAMES,
    MethodPatch,
    Sanitizer,
    SanitizerError,
    SanitizerSuite,
    attach_sanitizers,
)

# Importing the modules registers the built-ins with the object factory.
from repro.sanitize import credit_san, det_san, event_san, flit_san  # noqa: E402,F401
from repro.sanitize.credit_san import CreditSan
from repro.sanitize.det_san import DetSan, first_divergence
from repro.sanitize.event_san import EventSan
from repro.sanitize.flit_san import FlitSan

__all__ = [
    "SANITIZER_NAMES",
    "MethodPatch",
    "Sanitizer",
    "SanitizerError",
    "SanitizerSuite",
    "attach_sanitizers",
    "CreditSan",
    "FlitSan",
    "EventSan",
    "DetSan",
    "first_divergence",
]
