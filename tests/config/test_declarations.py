"""Settings declarations: lint and construction refuse the same configs.

Every leaf a model declares (:mod:`repro.config.spec`) is set, in turn,
to a wrong-typed value, a null, a value outside its choices and a value
below its minimum, inside a valid host config that selects the model.
Lint must report C002/C003 at that path exactly when ``Simulation``
raises a ``SettingsError`` naming it, in the same words.  The builtin
configs read no undeclared key, and the defaults in
docs/CONFIGURATION.md are the declared ones.
"""

from __future__ import annotations

import copy
import json
import pathlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

import pytest

from repro import Settings, Simulation, configs, factory, models
from repro.config.settings import SettingsError
from repro.config.spec import REQUIRED, Block, KeySpec, declared, spec_of
from repro.lint import lint_config_dict
from repro.net.network import Network
from repro.router.base import Router
from repro.router.crossbar_scheduler import CrossbarScheduler
from repro.router.input_output_queued import InputOutputQueuedRouter
from repro.routing.base import RoutingAlgorithm
from repro.sim import SIMULATOR, OUTPUT
from repro.workload.application import Application
from repro.workload.workload import Workload
from tests.conftest import small_torus_config
from tests.integration.test_delivery_invariants import CONFIGS

models.load_all()

ROOT = Block(Simulation)

#: (declared path with list index 0, class or block owning the key).
Identity = Tuple[str, str]


def _models(block: Block, data: Optional[dict]) -> List[Any]:
    """The declarations ``block`` brings in: the model ``data`` selects,
    or with no data every packaged model."""
    if block.selector is None:
        return [block.model]
    if data is None:
        return [factory.lookup(block.model, name)
                for name in factory.names(block.model)
                if factory.lookup(block.model, name).__module__.startswith(
                    "repro.")]
    return [factory.lookup(block.model, data.get(block.selector, block.default))]


def _owner(model: Any, key: str, path: str) -> str:
    if isinstance(model, dict):
        return path
    return next(cls.__qualname__ for cls in model.__mro__
                if key in vars(cls).get("SETTINGS", {}))


def declared_paths(block: Block, data: Optional[dict], path: str = ""
                   ) -> Iterator[Tuple[Identity, Optional[KeySpec]]]:
    """Each key declared under ``block``: leaves with their spec, block
    and selector keys with None.  ``data`` is a config block, or None
    to walk every packaged model."""
    if block.many:
        for index, item in enumerate([None] if data is None else data):
            yield from declared_paths(Block(block.model, block.selector,
                                            block.default), item,
                                      f"{path}.{index}")
        return
    if block.selector is not None:
        yield (f"{path}.{block.selector}", block.model.__name__), None
    for model in _models(block, data):
        for key, spec in declared(model).items():
            where = f"{path}.{key}" if path else key
            if isinstance(spec, Block):
                yield (where, _owner(model, key, path)), None
                child = None if data is None else data.get(key, [{}] if spec.many else {})
                yield from declared_paths(spec, child, where)
            else:
                yield (where, _owner(model, key, path)), spec


def _app_host(**application) -> dict:
    config = small_torus_config()
    config["workload"]["applications"] = [
        {"injection_rate": 0.2, **application}]
    return config


#: Valid configs that, between them, select every packaged model that
#: declares a key of its own.
HOSTS = [
    {"simulator": {"seed": 23}, **copy.deepcopy(cell)}
    for cell in CONFIGS.values()
] + [
    _app_host(type="blast", traffic={"type": "neighbor"}),
    _app_host(type="blast", traffic={"type": "all_to_one"}),
    _app_host(type="blast", message_size={"type": "uniform", "max_size": 4}),
    _app_host(type="blast", message_size={
        "type": "probability", "sizes": [1, 4], "weights": [3, 1]}),
    _app_host(type="pulse", duration=500),
    _app_host(type="request_reply"),
]


def _hosted() -> Dict[Identity, Tuple[str, KeySpec, int]]:
    """Per declared leaf: its path, spec and the first host reaching it."""
    hosted: Dict[Identity, Tuple[str, KeySpec, int]] = {}
    for index, host in enumerate(HOSTS):
        for identity, spec in declared_paths(ROOT, host):
            if spec is not None:
                hosted.setdefault(identity, (identity[0], spec, index))
    return hosted


HOSTED = _hosted()
DECLARED = {identity: spec for identity, spec in declared_paths(ROOT, None)
            if spec is not None}


def _bad_values(spec: KeySpec) -> Iterator[Tuple[str, Any]]:
    yield "type", {"str": 7, "bool": 1, "int_list": ["x"]}.get(spec.kind, "x")
    if not spec.allow_null:
        yield "null", None
    if spec.choices is not None:
        yield "choice", "no_such_choice"
    if spec.minimum is not None:
        below = spec.minimum - (0.5 if spec.kind == "float" else 1)
        yield "minimum", [below] if spec.kind == "int_list" else below


CASES = [
    pytest.param(identity, value, id=f"{identity[0]}[{identity[1]}]-{label}")
    for identity, spec in sorted(DECLARED.items())
    for label, value in _bad_values(spec)
]


def _set(config: dict, path: str, value: Any) -> None:
    node: Any = config
    parts = path.split(".")
    for part in parts[:-1]:
        node = node[int(part)] if isinstance(node, list) else node.setdefault(part, {})
    node[parts[-1]] = value


def _agreement(config: dict, path: str) -> Tuple[List[str], Optional[str]]:
    """Lint's C002/C003 messages at ``path`` and construction's refusal
    naming it (None when it builds, or refuses something else)."""
    findings = [f.message for f in lint_config_dict(config, graph=False).findings
                if f.rule_id in ("C002", "C003") and f.config_path == path]
    try:
        Simulation(Settings.from_dict(config))
    except SettingsError as exc:
        if str(exc).startswith(f"{path}: "):
            return findings, str(exc)[len(path) + 2:]
    return findings, None


def test_every_declared_leaf_has_a_host():
    assert sorted(set(DECLARED) - set(HOSTED)) == []


def test_hosts_are_clean_and_build():
    for host in HOSTS:
        report = lint_config_dict(host, graph=False)
        assert [f.rule_id for f in report.findings] == []
        Simulation(Settings.from_dict(host))


@pytest.mark.parametrize("identity, value", CASES)
def test_lint_and_construction_refuse_alike(identity, value):
    path, _spec, host = HOSTED[identity]
    config = copy.deepcopy(HOSTS[host])
    _set(config, path, value)
    findings, refusal = _agreement(config, path)
    assert findings == ([refusal] if refusal is not None else [])
    assert refusal is not None


@pytest.mark.parametrize("path, value", [
    ("network.router.output_staging_depth", 0),
    ("workload.applications.0.injection_rate", -0.5),
    ("workload.applications.0.warmup_tolerance", -1.0),
    ("workload.applications.0.warmup_check_period", 0),
])
def test_values_lint_refused_now_fail_construction(path, value):
    """Values lint has long refused that construction used to run with:
    a zero-depth staging register, a negative rate (no message sent),
    a negative warmup tolerance, and a zero check period (which died in
    the engine with a packed-time overflow)."""
    config = small_torus_config()
    _set(config, path, value)
    findings, refusal = _agreement(config, path)
    assert refusal is not None and findings == [refusal]


def _builtins() -> List[str]:
    return sorted(name for name in dir(configs)
                  if name.endswith("_config") and callable(getattr(configs, name)))


@pytest.mark.parametrize("name", _builtins())
def test_builtin_configs_read_only_declared_keys(name, monkeypatch):
    """Build and briefly run a builtin, recording every key a model
    reads through ``Settings``: each one is declared at its path."""
    reads = set()

    def recorder(method):
        original = getattr(Settings, method)

        def wrapped(self, *args, **kwargs):
            key = args[1] if method == "read" else args[0]
            reads.add(f"{self._path}.{key}" if self._path else key)
            return original(self, *args, **kwargs)
        return wrapped

    for method in ("read", "get", "child", "child_list", "__contains__"):
        monkeypatch.setattr(Settings, method, recorder(method))
    config = getattr(configs, name)()
    Simulation(Settings.from_dict(config)).run(max_time=200)
    declared_here = {identity[0] for identity, _ in declared_paths(ROOT, config)}
    assert reads and sorted(reads - declared_here) == []


# ---------------------------------------------------------------------------
# docs/CONFIGURATION.md
# ---------------------------------------------------------------------------

DOC = pathlib.Path(__file__).parents[2] / "docs" / "CONFIGURATION.md"

_NETWORK = spec_of(Simulation, "network")
_ROUTER = spec_of(Network, "router")

#: Each default table's heading, and the blocks whose models declare
#: its keys, searched in order.
DOC_SECTIONS = {
    "`simulator`": [Block(SIMULATOR)],
    "`network`": [_NETWORK],
    "`network.router`": [Block(Router, _ROUTER.selector),
                         *(Block(factory.lookup(Router, name))
                           for name in ("output_queued", "input_queued"))],
    "`network.router` (IOQ)": [Block(InputOutputQueuedRouter)],
    "`network.router.crossbar_scheduler` (IQ, IOQ)": [Block(CrossbarScheduler)],
    "`network.router.congestion_sensor`": [spec_of(Router, "congestion_sensor")],
    "`network.interface`": [spec_of(Network, "interface")],
    "`network.routing`": [Block(factory.lookup(RoutingAlgorithm, "hyperx_ugal"),
                                "algorithm")],
    "`workload`": [spec_of(Workload, "applications")],
    **{f"`{name}`": [Block(factory.lookup(Application, name))]
       for name in ("blast", "pulse", "request_reply")},
    "`output` (CLI only)": [Block(OUTPUT)],
}


def _doc_tables() -> Iterator[Tuple[str, str, str]]:
    """(section heading, key, default) for each row of a ``| key |
    default | meaning |`` table."""
    heading, in_table = "", False
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            heading, in_table = line.lstrip("#").strip(), False
        elif line.startswith("| key | default | meaning |"):
            in_table = True
        elif in_table and line.startswith("| `"):
            key, default = (cell.strip() for cell in line.split("|")[1:3])
            yield heading, key.strip("`"), default
        elif not line.startswith("|"):
            in_table = False


def _declared_default(blocks: List[Block], key: str) -> Any:
    """The default of dotted ``key``, from the first block declaring it
    (a selecting block's keys are its default model's)."""
    head, _, rest = key.partition(".")
    for block in blocks:
        if head == block.selector:
            return REQUIRED if block.default is None else block.default
        model = block.model
        if block.selector is not None and block.default is not None:
            model = factory.lookup(model, block.default)
        entries = declared(model)
        if head not in entries:
            continue
        spec = entries[head]
        if isinstance(spec, Block):
            return _declared_default([spec], rest)
        return spec.default
    raise AssertionError(f"{key!r} is declared by none of {blocks}")


def _doc_default(cell: str) -> Any:
    word = cell.split()[0]
    if word == "required":
        return REQUIRED
    if word == "none":
        return None
    if word.startswith("`"):
        return word.strip("`")
    return json.loads(word)


def test_configuration_doc_defaults_are_the_declared_ones():
    rows = list(_doc_tables())
    assert {heading for heading, _, _ in rows} == set(DOC_SECTIONS)
    for heading, key, cell in rows:
        declared_default = _declared_default(DOC_SECTIONS[heading], key)
        assert _doc_default(cell) == declared_default, (heading, key, cell)
        assert type(_doc_default(cell)) is type(declared_default), (heading, key)
