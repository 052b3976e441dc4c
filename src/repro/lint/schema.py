"""Declarative schema of the simulation configuration tree.

The schema mirrors how the component constructors actually consume
``Settings`` (paper §III-C): a :class:`BlockSpec` per settings block,
with a :class:`KeySpec` per leaf key, nested child blocks, and
model-selector keys (``type`` / ``architecture`` / ``algorithm`` /
``topology``) whose chosen value pulls in a per-model *variant* block
of extra keys.

Model selectors are validated against the live object factory
(:mod:`repro.factory`), so user models registered at import time are
first-class: a block whose selected model is registered but has no
packaged variant is treated as *open* (unknown keys tolerated), because
the linter cannot know which keys a user model reads.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: Marker default for required keys.
REQUIRED = object()


class KeySpec:
    """One leaf setting: expected kind, default, and value constraints."""

    __slots__ = ("kind", "default", "choices", "minimum", "maximum", "allow_null")

    def __init__(
        self,
        kind: str,
        default: Any = REQUIRED,
        choices: Optional[Tuple[str, ...]] = None,
        minimum: Optional[float] = None,
        maximum: Optional[float] = None,
        allow_null: bool = False,
    ):
        self.kind = kind
        self.default = default
        self.choices = choices
        self.minimum = minimum
        self.maximum = maximum
        self.allow_null = allow_null

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    def type_ok(self, value: Any) -> bool:
        if value is None:
            return self.allow_null
        if self.kind == "uint":
            return isinstance(value, int) and not isinstance(value, bool)
        if self.kind == "int":
            return isinstance(value, int) and not isinstance(value, bool)
        if self.kind == "float":
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self.kind == "str":
            return isinstance(value, str)
        if self.kind == "bool":
            return isinstance(value, bool)
        if self.kind == "int_list":
            return isinstance(value, list) and all(
                isinstance(v, int) and not isinstance(v, bool) for v in value
            )
        if self.kind == "list":
            return isinstance(value, list)
        return True  # "any"


class BlockSpec:
    """One settings block: keys, nested blocks, and a model selector."""

    __slots__ = ("keys", "children", "selector", "selector_default",
                 "variants", "list_item", "open", "required_children")

    def __init__(
        self,
        keys: Optional[Dict[str, KeySpec]] = None,
        children: Optional[Dict[str, "BlockSpec"]] = None,
        selector: Optional[Tuple[str, str]] = None,
        selector_default: Optional[str] = None,
        variants: Optional[Dict[str, "BlockSpec"]] = None,
        list_item: Optional["BlockSpec"] = None,
        open: bool = False,
        required_children: Tuple[str, ...] = (),
    ):
        self.keys = dict(keys or {})
        self.children = dict(children or {})
        #: (selector key, factory base name), e.g. ("type", "TrafficPattern").
        self.selector = selector
        #: Model chosen when the selector key is absent (None = required).
        self.selector_default = selector_default
        self.variants = dict(variants or {})
        self.list_item = list_item
        self.open = open
        #: Child block names whose absence is an error at construction.
        self.required_children = tuple(required_children)

    def variant_for(self, model: str) -> Optional["BlockSpec"]:
        return self.variants.get(model)


# ---------------------------------------------------------------------------
# factory base-class resolution (lazy, to avoid import cycles)
# ---------------------------------------------------------------------------


def factory_base(name: str) -> type:
    """Resolve a schema base-class name to the class the factory keys on."""
    from repro.net.interface import Interface
    from repro.net.network import Network
    from repro.router.arbiter import Arbiter
    from repro.router.base import Router
    from repro.router.congestion import CongestionSensor
    from repro.routing.base import RoutingAlgorithm
    from repro.workload.application import Application
    from repro.workload.injection import InjectionProcess
    from repro.workload.size import MessageSizeDistribution
    from repro.workload.traffic import TrafficPattern

    return {
        "Network": Network,
        "Router": Router,
        "RoutingAlgorithm": RoutingAlgorithm,
        "Interface": Interface,
        "Application": Application,
        "TrafficPattern": TrafficPattern,
        "MessageSizeDistribution": MessageSizeDistribution,
        "InjectionProcess": InjectionProcess,
        "CongestionSensor": CongestionSensor,
        "Arbiter": Arbiter,
    }[name]


# ---------------------------------------------------------------------------
# the schema tree
# ---------------------------------------------------------------------------


def _arbiter_block() -> BlockSpec:
    return BlockSpec(
        keys={},
        selector=("type", "Arbiter"),
        selector_default="round_robin",
        variants={
            "round_robin": BlockSpec(),
            "age_based": BlockSpec(),
            "random": BlockSpec(),
            "fixed_priority": BlockSpec(),
        },
    )


def _congestion_sensor_block() -> BlockSpec:
    return BlockSpec(
        keys={
            "latency": KeySpec("uint", default=1, minimum=0),
            "granularity": KeySpec("str", default="vc", choices=("vc", "port")),
            "source": KeySpec(
                "str",
                default="downstream",
                choices=("output", "downstream", "both"),
            ),
        },
        selector=("type", "CongestionSensor"),
        selector_default="credit",
        variants={"credit": BlockSpec()},
    )


def _crossbar_scheduler_block() -> BlockSpec:
    return BlockSpec(
        keys={
            "flow_control": KeySpec(
                "str",
                default="flit_buffer",
                choices=("flit_buffer", "packet_buffer", "winner_take_all"),
            ),
        },
        children={"arbiter": _arbiter_block()},
    )


def _router_block() -> BlockSpec:
    return BlockSpec(
        keys={
            "input_queue_depth": KeySpec("uint", default=16, minimum=1),
            "core_latency": KeySpec("uint", default=1, minimum=0),
        },
        children={
            "congestion_sensor": _congestion_sensor_block(),
            "vc_scheduler": BlockSpec(children={"arbiter": _arbiter_block()}),
        },
        selector=("architecture", "Router"),
        variants={
            "input_queued": BlockSpec(
                keys={"output_staging_depth": KeySpec("uint", default=2, minimum=1)},
                children={"crossbar_scheduler": _crossbar_scheduler_block()},
            ),
            "output_queued": BlockSpec(
                keys={
                    "output_queue_depth": KeySpec(
                        "uint", default=None, minimum=1, allow_null=True
                    )
                },
                children={"output_arbiter": _arbiter_block()},
            ),
            "input_output_queued": BlockSpec(
                keys={"output_queue_depth": KeySpec("uint", default=64, minimum=1)},
                children={
                    "crossbar_scheduler": _crossbar_scheduler_block(),
                    "output_arbiter": _arbiter_block(),
                },
            ),
        },
    )


def _interface_block() -> BlockSpec:
    return BlockSpec(
        keys={},
        selector=("type", "Interface"),
        selector_default="standard",
        variants={
            "standard": BlockSpec(
                keys={
                    "max_packet_size": KeySpec("uint", default=16, minimum=1),
                    "ejection_buffer_size": KeySpec("uint", default=64, minimum=1),
                    "injection_vcs": KeySpec("int_list", default=None),
                }
            ),
        },
    )


def _routing_block() -> BlockSpec:
    return BlockSpec(
        keys={},
        selector=("algorithm", "RoutingAlgorithm"),
        variants={
            "torus_dimension_order": BlockSpec(),
            "torus_minimal_adaptive": BlockSpec(),
            "hyperx_dimension_order": BlockSpec(),
            "hyperx_valiant": BlockSpec(),
            "hyperx_ugal": BlockSpec(
                keys={"ugal_bias": KeySpec("float", default=0.0)}
            ),
            "clos_deterministic": BlockSpec(),
            "clos_adaptive": BlockSpec(),
            "dragonfly_minimal": BlockSpec(),
            "dragonfly_valiant": BlockSpec(),
            "dragonfly_ugal": BlockSpec(
                keys={"ugal_bias": KeySpec("float", default=0.0)}
            ),
            "chain": BlockSpec(),
        },
    )


def _network_block() -> BlockSpec:
    return BlockSpec(
        keys={
            "num_vcs": KeySpec("uint", default=1, minimum=1),
            "channel_latency": KeySpec("uint", default=1, minimum=1),
            "terminal_channel_latency": KeySpec("uint", default=1, minimum=1),
            "channel_period": KeySpec("uint", default=1, minimum=1),
        },
        children={
            "router": _router_block(),
            "interface": _interface_block(),
            "routing": _routing_block(),
        },
        selector=("topology", "Network"),
        required_children=("router", "routing"),
        variants={
            "torus": BlockSpec(
                keys={
                    "dimension_widths": KeySpec("int_list", minimum=2),
                    "concentration": KeySpec("uint", default=1, minimum=1),
                }
            ),
            "hyperx": BlockSpec(
                keys={
                    "dimension_widths": KeySpec("int_list", minimum=2),
                    "concentration": KeySpec("uint", default=1, minimum=1),
                }
            ),
            "folded_clos": BlockSpec(
                keys={
                    "half_radix": KeySpec("uint", minimum=1),
                    "num_levels": KeySpec("uint", minimum=2),
                }
            ),
            "dragonfly": BlockSpec(
                keys={
                    "group_size": KeySpec("uint", minimum=2),
                    "global_links": KeySpec("uint", minimum=1),
                    "concentration": KeySpec("uint", default=1, minimum=1),
                    "num_groups": KeySpec("uint", default=None, minimum=2),
                    "global_latency": KeySpec("uint", default=None, minimum=1),
                }
            ),
            "parking_lot": BlockSpec(
                keys={
                    "length": KeySpec("uint", minimum=2),
                    "concentration": KeySpec("uint", default=1, minimum=1),
                }
            ),
        },
    )


def _traffic_block() -> BlockSpec:
    return BlockSpec(
        keys={},
        selector=("type", "TrafficPattern"),
        selector_default="uniform_random",
        variants={
            "uniform_random": BlockSpec(
                keys={"allow_self": KeySpec("bool", default=False)}
            ),
            "bit_complement": BlockSpec(),
            "tornado": BlockSpec(),
            "transpose": BlockSpec(),
            "bit_reverse": BlockSpec(),
            "neighbor": BlockSpec(keys={"offset": KeySpec("int", default=1)}),
            "random_permutation": BlockSpec(),
            "all_to_one": BlockSpec(
                keys={"target": KeySpec("uint", default=0, minimum=0)}
            ),
            "uniform_to_root": BlockSpec(),
        },
    )


def _message_size_block() -> BlockSpec:
    return BlockSpec(
        keys={},
        selector=("type", "MessageSizeDistribution"),
        selector_default="constant",
        variants={
            "constant": BlockSpec(keys={"size": KeySpec("uint", default=1, minimum=1)}),
            "uniform": BlockSpec(
                keys={
                    "min_size": KeySpec("uint", default=1, minimum=1),
                    "max_size": KeySpec("uint", minimum=1),
                }
            ),
            "probability": BlockSpec(
                keys={
                    "sizes": KeySpec("int_list"),
                    "weights": KeySpec("list"),
                }
            ),
        },
    )


def _injection_block() -> BlockSpec:
    return BlockSpec(
        keys={},
        selector=("type", "InjectionProcess"),
        selector_default="bernoulli",
        variants={"bernoulli": BlockSpec(), "periodic": BlockSpec()},
    )


def _application_block() -> BlockSpec:
    return BlockSpec(
        keys={
            "injection_rate": KeySpec("float", default=0.0, minimum=0.0),
        },
        children={
            "traffic": _traffic_block(),
            "message_size": _message_size_block(),
            "injection": _injection_block(),
        },
        selector=("type", "Application"),
        variants={
            "blast": BlockSpec(
                keys={
                    "warmup_duration": KeySpec("uint", default=0, minimum=0),
                    "generate_duration": KeySpec("uint", default=0, minimum=0),
                    "warmup_mode": KeySpec(
                        "str", default="fixed", choices=("fixed", "auto")
                    ),
                    "warmup_check_period": KeySpec("uint", default=500, minimum=1),
                    "warmup_tolerance": KeySpec("float", default=0.05, minimum=0.0),
                }
            ),
            "pulse": BlockSpec(
                keys={
                    "delay": KeySpec("uint", default=0, minimum=0),
                    "duration": KeySpec("uint", minimum=1),
                    "num_terminals": KeySpec("uint", default=None, minimum=1),
                }
            ),
            "request_reply": BlockSpec(
                keys={
                    "response_size": KeySpec("uint", default=None, minimum=1),
                    "warmup_duration": KeySpec("uint", default=0, minimum=0),
                    "generate_duration": KeySpec("uint", default=0, minimum=0),
                }
            ),
        },
    )


def root_schema() -> BlockSpec:
    """The schema of a full simulation configuration document."""
    return BlockSpec(
        required_children=("network", "workload"),
        children={
            "simulator": BlockSpec(
                keys={
                    "seed": KeySpec("uint", default=12345, minimum=0),
                    "max_time": KeySpec("uint", default=None, minimum=1,
                                        allow_null=True),
                },
                children={
                    "monitor": BlockSpec(
                        keys={
                            "period": KeySpec("uint", default=0, minimum=0),
                            "print": KeySpec("bool", default=False),
                        }
                    )
                },
            ),
            "network": _network_block(),
            "workload": BlockSpec(
                children={
                    "applications": BlockSpec(list_item=_application_block()),
                },
                required_children=("applications",),
            ),
            "output": BlockSpec(
                keys={
                    "message_log": KeySpec("str", default=None),
                    "summary": KeySpec("str", default=None),
                }
            ),
        },
    )


#: Required top-level blocks (``Simulation`` raises without them).
REQUIRED_BLOCKS: List[str] = ["network", "workload"]


def injection_vcs_for(algorithm: str, num_vcs: int) -> Optional[List[int]]:
    """The VC set a packaged algorithm injects on, or None if unknown."""
    from repro import factory
    from repro.routing.base import RoutingAlgorithm

    if not factory.is_registered(RoutingAlgorithm, algorithm):
        return None
    cls = factory.lookup(RoutingAlgorithm, algorithm)
    try:
        return list(cls.injection_vcs(num_vcs))
    except Exception:  # noqa: BLE001 - a broken classmethod is not our finding
        return None
