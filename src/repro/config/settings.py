"""JSON-based configuration (paper §III-C, Listing 1).

SuperSim configures simulations through JSON, exploiting its natural
hierarchy: the top level has ``network`` and ``workload`` blocks, the
``network`` block contains ``router`` and ``interface`` blocks, and so
on.  Constructors receive their own sub-block and pass children's
sub-blocks down without peeking into them.

On top of plain JSON this module implements the three extensions the
paper describes:

* **Command line overrides** -- ``path.to.key=type=value`` arguments,
  e.g. ``network.router.architecture=string=my_arch`` or
  ``network.concentration=uint=16``.
* **File inclusions** -- a string value of the form ``"$include(file)"``
  is replaced by the parsed content of that JSON file (paths resolve
  relative to the including file).
* **Object referencing** -- a string value of the form ``"$ref(a.b.c)"``
  is replaced by the value at that absolute dotted path in the fully
  merged document.  References may point at included content and may
  chain; cycles are detected and rejected.
"""

from __future__ import annotations

import copy
import json
import pathlib
import re
from typing import Any, Iterable, List, Optional, Tuple, Union

from repro.config.spec import REQUIRED, Block, Declaration, KeySpec, spec_of
from repro.config.suggest import did_you_mean

_INCLUDE_RE = re.compile(r"^\$include\((?P<path>[^)]+)\)$")
_REF_RE = re.compile(r"^\$ref\((?P<path>[^)]+)\)$")
_BRACKET_RE = re.compile(r"\[(\d+)\]")

JsonValue = Union[None, bool, int, float, str, list, dict]


class SettingsError(ValueError):
    """Raised for malformed configuration input."""


# ---------------------------------------------------------------------------
# override parsing
# ---------------------------------------------------------------------------

_OVERRIDE_PARSERS = {
    "int": int,
    "uint": None,  # handled specially to enforce non-negativity
    "float": float,
    "string": str,
    "bool": None,  # handled specially
    "json": json.loads,
}


def parse_override(text: str) -> Tuple[List[str], JsonValue]:
    """Parse one ``path=type=value`` command line override.

    Returns ``(path_components, value)``.

    Numeric list indices may be written either dotted or bracketed:
    ``workload.applications.0.type`` and ``workload.applications[0].type``
    name the same leaf.

    >>> parse_override("network.concentration=uint=16")
    (['network', 'concentration'], 16)
    """
    parts = text.split("=", 2)
    if len(parts) != 3:
        raise SettingsError(
            f"override must look like path=type=value, got {text!r}"
        )
    path_text, type_name, value_text = parts
    if not path_text:
        raise SettingsError(f"override has empty path: {text!r}")
    if type_name not in _OVERRIDE_PARSERS:
        raise SettingsError(
            f"unknown override type {type_name!r} in {text!r}; "
            f"expected one of {sorted(_OVERRIDE_PARSERS)}"
        )
    if type_name == "uint":
        value: JsonValue = int(value_text)
        if value < 0:
            raise SettingsError(f"uint override is negative: {text!r}")
    elif type_name == "bool":
        lowered = value_text.lower()
        if lowered in ("true", "1", "yes"):
            value = True
        elif lowered in ("false", "0", "no"):
            value = False
        else:
            raise SettingsError(f"bad bool value in override: {text!r}")
    else:
        try:
            value = _OVERRIDE_PARSERS[type_name](value_text)
        except (ValueError, json.JSONDecodeError) as exc:
            raise SettingsError(f"bad {type_name} value in {text!r}: {exc}") from exc
    return split_path(path_text), value


def split_path(path_text: str) -> List[str]:
    """Split a dotted override path, normalizing ``a[0].b`` to ``a.0.b``."""
    return _BRACKET_RE.sub(r".\1", path_text).split(".")


def apply_override(root: dict, path: List[str], value: JsonValue) -> None:
    """Set ``value`` at dotted ``path`` inside ``root``, creating dicts.

    Numeric path components index into lists,
    e.g. ``workload.applications.0.type``.
    """
    node: Any = root
    for i, key in enumerate(path[:-1]):
        if isinstance(node, list):
            node = node[_list_index(node, key, path)]
        elif isinstance(node, dict):
            if key not in node:
                node[key] = {}
            node = node[key]
        else:
            raise SettingsError(
                f"cannot descend into non-container at "
                f"{'.'.join(path[: i + 1])!r}"
            )
    leaf = path[-1]
    if isinstance(node, list):
        node[_list_index(node, leaf, path)] = value
    elif isinstance(node, dict):
        node[leaf] = value
    else:
        raise SettingsError(f"cannot set key on non-container at {'.'.join(path)!r}")


def _list_index(node: list, key: str, path: List[str]) -> int:
    try:
        index = int(key)
    except ValueError:
        raise SettingsError(
            f"list index expected in path {'.'.join(path)!r}, got {key!r}"
        ) from None
    if not 0 <= index < len(node):
        raise SettingsError(
            f"list index {index} out of range in path {'.'.join(path)!r}"
        )
    return index


# ---------------------------------------------------------------------------
# includes and references
# ---------------------------------------------------------------------------


def _expand_includes(value: JsonValue, base_dir: pathlib.Path) -> JsonValue:
    if isinstance(value, str):
        match = _INCLUDE_RE.match(value)
        if match:
            target = base_dir / match.group("path")
            if not target.exists():
                raise SettingsError(f"$include target not found: {target}")
            with open(target, "r", encoding="utf-8") as handle:
                included = json.load(handle)
            return _expand_includes(included, target.parent)
        return value
    if isinstance(value, list):
        return [_expand_includes(item, base_dir) for item in value]
    if isinstance(value, dict):
        return {key: _expand_includes(item, base_dir) for key, item in value.items()}
    return value


def _lookup(root: JsonValue, path: List[str]) -> JsonValue:
    node = root
    for key in path:
        if isinstance(node, dict):
            if key not in node:
                raise SettingsError(f"$ref path not found: {'.'.join(path)!r}")
            node = node[key]
        elif isinstance(node, list):
            node = node[_list_index(node, key, path)]
        else:
            raise SettingsError(f"$ref descends into scalar: {'.'.join(path)!r}")
    return node


def _expand_refs(root: JsonValue) -> JsonValue:
    def resolve(value: JsonValue, active: Tuple[str, ...]) -> JsonValue:
        if isinstance(value, str):
            match = _REF_RE.match(value)
            if match:
                path_text = match.group("path")
                if path_text in active:
                    raise SettingsError(f"$ref cycle through {path_text!r}")
                target = _lookup(root, path_text.split("."))
                return resolve(copy.deepcopy(target), active + (path_text,))
            return value
        if isinstance(value, list):
            return [resolve(item, active) for item in value]
        if isinstance(value, dict):
            return {key: resolve(item, active) for key, item in value.items()}
        return value

    return resolve(root, ())


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------


class Settings:
    """A read-mostly view over a JSON configuration tree.

    ``Settings`` wraps a dict and provides typed accessors plus cheap
    sub-block extraction, so a Network constructor can do
    ``settings.child("router")`` and hand the result to the Router
    constructor without knowing anything about its content.
    """

    def __init__(self, data: Optional[dict] = None, path: str = ""):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise SettingsError(f"settings block at {path or '<root>'!r} must be a dict")
        self._data = data
        self._path = path

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_file(
        cls, filename: Union[str, pathlib.Path], overrides: Iterable[str] = ()
    ) -> "Settings":
        """Load a JSON file, expand includes/refs, apply CLI overrides."""
        path = pathlib.Path(filename)
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data = _expand_includes(data, path.parent)
        for override in overrides:
            keys, value = parse_override(override)
            apply_override(data, keys, value)
        data = _expand_refs(data)
        return cls(data)

    @classmethod
    def from_dict(cls, data: dict, overrides: Iterable[str] = ()) -> "Settings":
        """Build settings from an in-memory dict (deep-copied)."""
        data = copy.deepcopy(data)
        data = _expand_includes(data, pathlib.Path("."))
        for override in overrides:
            keys, value = parse_override(override)
            apply_override(data, keys, value)
        data = _expand_refs(data)
        return cls(data)

    # -- raw access -------------------------------------------------------------

    def raw(self) -> dict:
        """The underlying dict (not a copy -- treat as read-only)."""
        return self._data

    def to_dict(self) -> dict:
        """A deep copy of the underlying dict."""
        return copy.deepcopy(self._data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self._data, indent=indent, sort_keys=True)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def keys(self):
        return self._data.keys()

    def _where(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    # -- typed accessors -----------------------------------------------------

    _MISSING = object()

    def get(self, key: str, default: Any = _MISSING) -> Any:
        if key in self._data:
            return self._data[key]
        if default is self._MISSING:
            raise SettingsError(
                f"missing required setting {self._where(key)!r}"
                f"{did_you_mean(key, self._data)}"
            )
        return default

    def read(self, declaration: Declaration, key: str) -> Any:
        """``key`` as ``declaration`` (a model class or a dict) declares it.

        A leaf comes back checked, its default filled in (a float as a
        float); a refused value raises :class:`SettingsError` naming the
        dotted path, with the message lint reports for it.  A block
        comes back as a child view (a list of them for a ``many``
        block); a missing required key or block raises.
        """
        spec = spec_of(declaration, key)
        if isinstance(spec, Block):
            if spec.many:
                return self.child_list(key)
            return self.child(key) if spec.required else self.child(key, {})
        if key not in self._data:
            if spec.required:
                return self.get(key)  # raises, with a did-you-mean
            return spec.default
        value = self._data[key]
        problem = spec.problem(value)
        if problem is not None:
            raise SettingsError(f"{self._where(key)}: {problem[1]}")
        if spec.kind == "float" and value is not None:
            return float(value)
        return value

    def _get(self, key: str, kind: str, default: Any) -> Any:
        return self.read(
            {key: KeySpec(kind, REQUIRED if default is self._MISSING else default)},
            key,
        )

    def get_int(self, key: str, default: Any = _MISSING) -> int:
        return self._get(key, "int", default)

    def get_uint(self, key: str, default: Any = _MISSING) -> int:
        return self._get(key, "uint", default)

    def get_float(self, key: str, default: Any = _MISSING) -> float:
        return self._get(key, "float", default)

    def get_str(self, key: str, default: Any = _MISSING) -> str:
        return self._get(key, "str", default)

    def get_bool(self, key: str, default: Any = _MISSING) -> bool:
        return self._get(key, "bool", default)

    def get_list(self, key: str, default: Any = _MISSING) -> list:
        return self._get(key, "list", default)

    def get_int_list(self, key: str, default: Any = _MISSING) -> List[int]:
        return list(self._get(key, "int_list", default))

    # -- hierarchy -----------------------------------------------------------

    def child(self, key: str, default: Any = _MISSING) -> "Settings":
        """Extract a sub-block as a new Settings view.

        This is the mechanism by which constructors pass configuration
        down the component hierarchy (paper §III-C).
        """
        if key not in self._data:
            if default is self._MISSING:
                raise SettingsError(
                    f"missing settings block {self._where(key)!r}"
                    f"{did_you_mean(key, self._data)}"
                )
            return Settings(copy.deepcopy(default), self._where(key))
        value = self._data[key]
        if not isinstance(value, dict):
            raise SettingsError(
                f"settings block {self._where(key)!r} must be a dict, got {value!r}"
            )
        return Settings(value, self._where(key))

    def child_list(self, key: str) -> List["Settings"]:
        """Extract a list of sub-blocks (e.g. ``workload.applications``)."""
        value = self.get_list(key)
        children = []
        for index, item in enumerate(value):
            if not isinstance(item, dict):
                raise SettingsError(
                    f"element {index} of {self._where(key)!r} must be a dict"
                )
            children.append(Settings(item, f"{self._where(key)}.{index}"))
        return children

    def __repr__(self):
        return f"Settings({self._path or '<root>'!r}, keys={sorted(self._data)})"
