"""Channel-dependency-graph pins: the G-layer trace, digest for digest.

Each pin is a SHA-256 over everything the G rules read off a
:class:`GraphAnalysis`: the sorted full and escape edge sets, both
cycles, ``response_errors`` and ``trace_warnings`` in order,
``truncated`` and ``pairs_traced``.  The pins were recorded before the
trace was rewritten to own one packet copy per queued state, so any
change to the traversal order, to the ``respond()`` sequence or to the
expansion budget fails here even when the G findings happen to stay the
same.  The two-phase pins (HyperX and dragonfly Valiant/UGAL, and
``credit_accounting_config``, which is ``hyperx_ioq_ugal``) are of the
trace that follows every state in ``source_choices``; none of those
graphs has a full or escape cycle.

The configs: every ``test_delivery_invariants.CONFIGS`` entry, every
``repro.configs.*_config()`` builtin, the deadlock-prone
``naive_torus_minimal`` torus (G004), the HyperX dead-end (G003) and
wrong-ejection (G006) fixtures, so ``response_errors`` and
``trace_warnings`` are pinned in order, and one ``dragonfly_valiant``
pair traced with a budget small enough to truncate it.
"""

from __future__ import annotations

import copy
import hashlib

import pytest

from repro import configs as builders
from repro.config.settings import Settings
from repro.configs import blast_pulse_config, latent_congestion_config
from repro.lint import graph as graph_mod
from repro.lint.graph import GraphAnalysis
from repro.routing.base import RoutingAlgorithm
from tests.integration.test_delivery_invariants import CONFIGS

from .fixtures import naive_routing  # noqa: F401 - registers the algorithm
from .test_graph_topologies import hyperx_config


def analyse(config: dict, max_pairs: int = 512) -> GraphAnalysis:
    """``GraphAnalysis`` of ``config``; its probe packets are numbered
    from zero by the analysis's own network."""
    return GraphAnalysis(Settings.from_dict(config), max_pairs=max_pairs)


def cdg_digest(analysis: GraphAnalysis) -> str:
    def edges(graph):
        return sorted((a, b) for a, targets in graph.items() for b in targets)

    parts = (
        edges(analysis.full_edges),
        edges(analysis.escape_edges),
        analysis.full_cycle,
        analysis.escape_cycle,
        analysis.response_errors,
        analysis.trace_warnings,
        analysis.truncated,
        analysis.pairs_traced,
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


BUILTINS = sorted(
    name for name in dir(builders)
    if name.endswith("_config") and callable(getattr(builders, name))
)


def _naive_torus_minimal():
    config = copy.deepcopy(blast_pulse_config())
    config["network"]["routing"]["algorithm"] = "naive_torus_minimal"
    return config


FIXTURE_CASES = (
    "g003:hyperx_dead_end",
    "g004:naive_torus_minimal",
    "g006:hyperx_wrong_eject",
)


def _config(case: str) -> dict:
    kind, _, name = case.partition(":")
    if kind == "invariants":
        return copy.deepcopy(CONFIGS[name])
    if kind == "builtin":
        return getattr(builders, name)()
    if case == "g004:naive_torus_minimal":
        return _naive_torus_minimal()
    if case == "g003:hyperx_dead_end":
        return hyperx_config("hyperx_dead_end")
    assert case == "g006:hyperx_wrong_eject"
    return hyperx_config("hyperx_wrong_eject", concentration=2)


#: Recorded at 81e830b, before the trace rewrite; the two-phase pins
#: since source choices are enumerated.
PINS = {
    "builtin:blast_pulse_config": (
        "da6767a66f273c615bfd205f483e88df074fb96c56387900e36c7787155ad2a8"
    ),
    "builtin:credit_accounting_config": (
        "12c08417ef21653987165eda7deaef0bd24432049b54336b53463d8593754ae3"
    ),
    "builtin:flow_control_config": (
        "68b8546e2116d959ef461e268f7864ae9ba2752627a4db9f09795c150b6ea080"
    ),
    "builtin:latent_congestion_config": (
        "ad638339ff8547cb5085d875f759be681ec366e8004c51e077c1eab092cce7ea"
    ),
    "g003:hyperx_dead_end": (
        "914decb7d6e76068be446b687fb9c4f51b7f15032a106318ee539c18c5f07983"
    ),
    "g004:naive_torus_minimal": (
        "2fe7ac1ca8b1c59fe516f198e26a6dfad7152608f6a2c91c39aaea19f4b079c7"
    ),
    "g006:hyperx_wrong_eject": (
        "50c6f1d95f47dc0e5a65f5181fe120c8ccd000cb0ff03944e23ffd2739ba79da"
    ),
    "invariants:clos_oq_adaptive": (
        "8555fe6e3237e6d3c210b0fd0e9f2f47f3c9cb85882d4cb54eb0719f1417b7fd"
    ),
    "invariants:clos_oq_deterministic": (
        "bf579adcbb1579434838517a2c6b0ec1958ddedd2080c8c456dc3ebaad1a31bc"
    ),
    "invariants:dragonfly_minimal": (
        "dd17a9d43717b4cebe267ffb6ece5d7d616e448f42e2a8e7e430041f49338465"
    ),
    "invariants:dragonfly_ugal": (
        "447c38e591b0741250ada662ab33b6dfa3dd923456d684bde82c00db12e9e51c"
    ),
    "invariants:dragonfly_valiant": (
        "bcb5bfd6fbfa37feb2926680fee080ea2861b9c6e1c0d137760585eb0db63cd5"
    ),
    "invariants:hyperx_2d_valiant": (
        "849455ccfccf35fb2988cd3a9160fbfc94e69e512fda8310a7e590591634234b"
    ),
    "invariants:hyperx_ioq_ugal": (
        "12c08417ef21653987165eda7deaef0bd24432049b54336b53463d8593754ae3"
    ),
    "invariants:parking_lot_age_based": (
        "6234e55a3742f28081607ce965bbcd52f776a87e197cf9250bb7dc890900c3f4"
    ),
    "invariants:torus_3d_adaptive": (
        "afd17dc65ebb3c3d334bd424770a443141430b33c41be2788a5301465688c0db"
    ),
    "invariants:torus_ioq_wta": (
        "dd45ee3c7a70ba2518e3fcead219eec34c40acf28ddf1f23d75aa31ac71053b8"
    ),
    "invariants:torus_iq_dor": (
        "da6767a66f273c615bfd205f483e88df074fb96c56387900e36c7787155ad2a8"
    ),
    "invariants:torus_iq_packet_buffer": (
        "dd45ee3c7a70ba2518e3fcead219eec34c40acf28ddf1f23d75aa31ac71053b8"
    ),
}

#: (src, dst, budget) of the truncated dragonfly_valiant trace.
TRUNCATED_PAIR = (0, 11, 8)
TRUNCATED_PIN = (
    "9dad961d78dc3a60b7a7e709290eb6fdebd08d5fabe9eb5f46898af29c8c7810"
)


def test_pin_set_covers_every_config():
    expected = (
        {f"invariants:{name}" for name in CONFIGS}
        | {f"builtin:{name}" for name in BUILTINS}
        | set(FIXTURE_CASES)
    )
    assert set(PINS) == expected


@pytest.mark.parametrize("case", sorted(PINS))
def test_cdg_pin(case):
    analysis = analyse(_config(case))
    assert analysis.constructed, analysis.construction_error
    assert cdg_digest(analysis) == PINS[case]


def test_truncated_trace_pin():
    analysis = analyse(copy.deepcopy(CONFIGS["dragonfly_valiant"]), 0)
    src, dst, budget = TRUNCATED_PAIR
    analysis._trace_pair(src, dst, budget)
    assert analysis.truncated
    assert cdg_digest(analysis) == TRUNCATED_PIN


def test_trace_makes_one_copy_per_expansion(monkeypatch):
    """Host-independent cost guard on the bench Clos config: one packet
    copy and one ``respond()`` per expanded state.  Before the rewrite
    the same trace made 41 984 copies for its 18 400 expansions."""
    counts = {"copy": 0, "respond": 0}
    copy_packet = graph_mod._copy_packet
    respond = RoutingAlgorithm.respond

    def counting_copy(packet):
        counts["copy"] += 1
        return copy_packet(packet)

    def counting_respond(self, packet, input_port, input_vc):
        counts["respond"] += 1
        return respond(self, packet, input_port, input_vc)

    monkeypatch.setattr(graph_mod, "_copy_packet", counting_copy)
    monkeypatch.setattr(RoutingAlgorithm, "respond", counting_respond)
    analyse(latent_congestion_config(injection_rate=0.4, warmup=50,
                                     window=100))
    assert counts["respond"] == 18_400
    assert counts["copy"] <= counts["respond"]
