"""Sanitizer plumbing: errors, the base class, method shims, the suite.

A *sanitizer* is a runtime invariant checker that rides along with a
simulation.  SuperSim's built-in error detection (paper §IV-D) raises
on protocol violations that devices can see locally; sanitizers close
the remaining gap -- bugs that type-check, run, and produce plausible
numbers while silently corrupting results (the paper's case-study bug
classes, plus event-lifecycle misuse the engine tolerates).

Design constraints, in priority order:

1. **~0 cost when disabled.**  No sanitizer leaves any trace in the hot
   path unless attached: checks are installed by *replacing class
   methods with wrappers* (:class:`MethodPatch`) and by handing the
   suite's hooks to the executer (:meth:`Simulator.run`), both only
   while a suite is attached.  A simulation that never attaches a
   suite pays one iteration over an empty tuple per engine event.
2. **Individually toggleable.**  Each sanitizer registers with the
   object factory under a short name (``credit``, ``flit``, ``event``,
   ``det``), exactly like router architectures, so
   ``supersim --sanitize=credit,det`` composes any subset and user
   sanitizers can be dropped in without editing this package.
3. **Fail loud, fail located.**  A violation raises
   :class:`SanitizerError` at the first inconsistent check, carrying
   the simulation time, the component/link, and both sides of the
   violated equation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Union

from repro import factory

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulation


class SanitizerError(RuntimeError):
    """Raised at the first invariant violation a sanitizer detects."""


class MethodPatch:
    """One reversible class-method replacement.

    Wrappers close over the sanitizer instance and look up per-object
    state by ``id()``; objects the sanitizer was not attached to fall
    straight through to the original method, so patched classes remain
    usable by unrelated simulator instances in the same process (the
    lint graph layer constructs throwaway networks, tests run multiple
    simulations, ...).

    Patches stack: when two sanitizers patch the same method, the later
    wrapper closes over the earlier one.  :class:`SanitizerSuite`
    therefore removes patches in strict reverse attach order, and
    ``remove()`` refuses to run out of order rather than silently
    leaving a stale wrapper installed.
    """

    def __init__(
        self,
        cls: type,
        method_name: str,
        make_wrapper: Callable[[Callable], Callable],
    ):
        self.cls = cls
        self.method_name = method_name
        self.original = getattr(cls, method_name)
        self.wrapper = make_wrapper(self.original)

    def install(self) -> None:
        setattr(self.cls, self.method_name, self.wrapper)

    def remove(self) -> None:
        current = getattr(self.cls, self.method_name)
        if current is not self.wrapper:
            raise SanitizerError(
                f"cannot unpatch {self.cls.__name__}.{self.method_name}: "
                f"another wrapper was installed on top; detach sanitizer "
                f"suites in reverse attach order"
            )
        setattr(self.cls, self.method_name, self.original)


class Sanitizer:
    """Base class; concrete sanitizers register with the object factory.

    Lifecycle: ``attach(simulation)`` builds per-object state and
    installs shims; the simulation runs (possibly in several ``run()``
    calls); ``finish()`` performs end-of-run global checks; ``report()``
    returns a JSON-friendly stats dict; ``detach()`` restores every
    patched method.  ``attach``/``detach`` must pair exactly.
    """

    #: short factory name (``credit``, ``flit``, ``event``, ``det``).
    name: str = ""
    #: one-line summary (docs, ``--sanitize=help`` style listings).
    description: str = ""

    def __init__(self) -> None:
        self.simulation: Any = None
        self.checks = 0
        self._patches: List[MethodPatch] = []

    # -- lifecycle ----------------------------------------------------------

    def attach(self, simulation: "Simulation") -> None:
        if self.simulation is not None:
            raise SanitizerError(f"{self.name}: already attached")
        self.simulation = simulation
        self._install(simulation)
        for patch in self._patches:
            patch.install()

    def detach(self) -> None:
        for patch in reversed(self._patches):
            patch.remove()
        self._patches = []
        self.simulation = None

    def _install(self, simulation: "Simulation") -> None:
        """Build state and append :class:`MethodPatch` objects."""
        raise NotImplementedError

    # -- executer hook (used by Simulator.run) ------------------------------

    def pre_event_hook(self):
        """Callable ``hook(entry_key, event)`` run before each handler,
        or ``None`` when this sanitizer does not observe events."""
        return None

    # -- results ------------------------------------------------------------

    def finish(self) -> None:
        """End-of-run global checks; raise :class:`SanitizerError` on
        violation."""

    def report(self) -> Dict[str, Any]:
        return {"checks": self.checks}

    # -- helpers ------------------------------------------------------------

    def violation(self, message: str) -> None:
        now = "?"
        if self.simulation is not None:
            now = str(self.simulation.simulator.now)
        raise SanitizerError(f"[{self.name}] at {now}: {message}")


#: canonical attach order; credit/flit patch channels, event/det hook the
#: executer, and the order is what detach reverses.
SANITIZER_NAMES = ("credit", "flit", "event", "det")


def _parse_spec(spec: Union[str, Iterable[str]]) -> List[str]:
    if isinstance(spec, str):
        names = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        names = list(spec)
    if not names:
        raise SanitizerError("empty sanitizer spec; use 'all' or a "
                             "comma-separated subset of "
                             + ",".join(SANITIZER_NAMES))
    if "all" in names:
        return list(SANITIZER_NAMES)
    # Canonical order regardless of spec order, unknown names rejected
    # by the factory lookup with the registered alternatives listed.
    known = [name for name in SANITIZER_NAMES if name in names]
    extra = [name for name in names if name not in SANITIZER_NAMES]
    return known + extra


class SanitizerSuite:
    """A set of attached sanitizers plus their aggregated executer hooks."""

    def __init__(self, sanitizers: List[Sanitizer]):
        self.sanitizers = sanitizers
        self.simulation: Any = None
        self.pre_event_hooks: List[Callable] = []

    @property
    def names(self) -> List[str]:
        return [sanitizer.name for sanitizer in self.sanitizers]

    def attach(self, simulation: "Simulation") -> "SanitizerSuite":
        if simulation.simulator._sanitizer is not None:
            raise SanitizerError(
                "a sanitizer suite is already attached to this simulator"
            )
        self.simulation = simulation
        for sanitizer in self.sanitizers:
            sanitizer.attach(simulation)
        self.pre_event_hooks = [
            hook
            for sanitizer in self.sanitizers
            if (hook := sanitizer.pre_event_hook()) is not None
        ]
        if self.pre_event_hooks:
            simulation.simulator._sanitizer = self
        return self

    def detach(self) -> None:
        if self.simulation is not None:
            self.simulation.simulator._sanitizer = None
        for sanitizer in reversed(self.sanitizers):
            if sanitizer.simulation is not None:
                sanitizer.detach()
        self.simulation = None

    def finish(self) -> None:
        """Run every sanitizer's end-of-run checks."""
        for sanitizer in self.sanitizers:
            sanitizer.finish()

    def report(self) -> Dict[str, Dict[str, Any]]:
        return {
            sanitizer.name: sanitizer.report()
            for sanitizer in self.sanitizers
        }

    # Context manager: guarantees detach even when a violation raises.

    def __enter__(self) -> "SanitizerSuite":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()


def attach_sanitizers(
    simulation: "Simulation", spec: Union[str, Iterable[str]] = "all"
) -> SanitizerSuite:
    """Create and attach the sanitizers ``spec`` names.

    ``spec`` is ``"all"``, a comma-separated string, or an iterable of
    factory names.  Returns the attached :class:`SanitizerSuite`; use it
    as a context manager (or call ``detach()``) so class patches are
    removed even when a run raises::

        suite = attach_sanitizers(simulation, "credit,det")
        with suite:
            simulation.run(max_time=10_000)
            suite.finish()
        print(suite.report())
    """
    import repro.sanitize  # noqa: F401 - ensure built-ins are registered

    names = _parse_spec(spec)
    suite = SanitizerSuite([
        factory.create(Sanitizer, name) for name in names
    ])
    return suite.attach(simulation)
