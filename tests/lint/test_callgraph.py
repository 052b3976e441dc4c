"""The call-graph reach (``reachable`` in :mod:`repro.lint.callgraph`).

The shard layer reads every verdict off this one traversal: which
methods an entry point reaches, by which evidence path and under which
guard conditions.  These tests drive it directly on packaged classes
and on three small routing classes defined here.
"""

from __future__ import annotations

from repro.core.wheel import PhaseWheel
from repro.lint.callgraph import ClassGraph, reachable, render_conds
from repro.net.channel import _LandingWheel
from repro.router.input_queued import InputQueuedRouter
from repro.routing.torus import TorusDimensionOrderRouting

#: the per-event router handlers the simulator drives.
ROUTER_ENTRIES = ("_step", "receive_flit", "receive_credit", "send_credit")
ROUTING_ENTRIES = ("route", "respond")


class AllocTrailRouting(TorusDimensionOrderRouting):
    """Calls a helper one level below ``route``."""

    topology = "torus"

    def route(self, packet, input_port: int, input_vc: int):
        candidates = super().route(packet, input_port, input_vc)
        self._note_trail(candidates)
        return candidates

    def _note_trail(self, candidates) -> None:
        self._trail = [candidate.port for candidate in candidates]


class ColdSetupRouting(TorusDimensionOrderRouting):
    """A construction-time helper no entry point reaches."""

    topology = "torus"

    def _build_bias(self) -> None:
        self._bias_rows = [list(range(8)) for _ in range(8)]


class GuardedRouting:
    """Two ways to ``_leaf``: short but guarded, or long and
    unconditional; and an entry that calls another entry."""

    def __init__(self, settings):
        self.mode = settings.get_str("mode", "plain")

    def route(self, packet, input_port, input_vc):
        if self.mode == "fast":
            self._leaf()
            self._only_when_fast()
        self._middle()

    def respond(self, packet, input_port, input_vc):
        return self.route(packet, input_port, input_vc)

    def _middle(self):
        self._leaf()

    def _leaf(self):
        pass

    def _only_when_fast(self):
        pass


def test_entry_points_seed_the_reach():
    reach = reachable(ClassGraph(InputQueuedRouter), ROUTER_ENTRIES)
    assert reach["_step"].path == ("_step",)
    assert reach["_step"].conds == ()
    # The core traversal is no entry point: its landing is reached
    # because the step calls it.
    landing = reach["_land_core_arrivals"]
    assert landing.path == ("_step", "_land_core_arrivals")
    assert reach["receive_flit"].path == ("receive_flit",)


def test_helpers_are_reached_interprocedurally():
    reach = reachable(ClassGraph(InputQueuedRouter), ROUTER_ENTRIES)
    crossbar = reach["_run_crossbar"]
    assert crossbar.path[0] == "_step"
    assert crossbar.path[-1] == "_run_crossbar"


def test_construction_time_code_is_not_reached():
    reach = reachable(ClassGraph(InputQueuedRouter), ROUTER_ENTRIES)
    assert "__init__" not in reach
    assert "_finalize_arch" not in reach


def test_wheel_loops_reach_their_helpers():
    for cls in (PhaseWheel, _LandingWheel):
        reach = reachable(ClassGraph(cls), ["_drain"])
        assert reach["_drain"].path == ("_drain",)
    # The landing loop re-registers links through add().
    assert reach["add"].path == ("_drain", "add")


def test_interprocedural_evidence_chain():
    reach = reachable(ClassGraph(AllocTrailRouting), ROUTING_ENTRIES)
    assert reach["_note_trail"].path == ("route", "_note_trail")


def test_unreached_helper_is_absent():
    reach = reachable(ClassGraph(ColdSetupRouting), ROUTING_ENTRIES)
    assert "route" in reach
    assert "_build_bias" not in reach


def test_fewer_conditions_beat_a_shorter_path():
    reach = reachable(ClassGraph(GuardedRouting), ROUTING_ENTRIES)
    assert reach["_leaf"].path == ("route", "_middle", "_leaf")
    assert reach["_leaf"].conds == ()
    fast = reach["_only_when_fast"]
    assert fast.path == ("route", "_only_when_fast")
    assert render_conds(fast.conds) == "[when mode == 'fast']"


def test_entries_keep_their_own_path():
    reach = reachable(ClassGraph(GuardedRouting), ROUTING_ENTRIES)
    assert reach["route"].path == ("route",)
    assert reach["respond"].path == ("respond",)
    # An entry the class does not define is skipped.
    assert "on_init" not in reachable(ClassGraph(GuardedRouting), ["on_init"])
