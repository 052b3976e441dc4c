"""Settings declarations: each model states the keys it reads, once.

A model class declares ``SETTINGS``, a dict from key to a
:class:`KeySpec` (a leaf value: its kind, default, minimum, choices and
whether null is allowed) or a :class:`Block` (a nested settings block).
A class's declaration is the union of ``SETTINGS`` over its MRO, the
most derived entry winning, so a subclass adds keys or redeclares one.

Constructors read every declared setting through
:meth:`~repro.config.settings.Settings.read`, which refuses what the
declaration refuses with a :class:`SettingsError` naming the dotted
path; ``repro.lint`` derives its schema (rules C001..C005) by walking
the same declarations through the object factory, so lint and
construction refuse the same configs.  A registered model whose own
class body declares nothing is *open*: lint tolerates keys it cannot
know about.  A packaged model that reads no settings says so with
``SETTINGS = {}``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

from repro import factory

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.settings import Settings

#: Marker default for required keys.
REQUIRED = object()

#: Per kind: how a refusal names it, and the type test.
_KINDS = {
    "uint": ("a non-negative integer",
             lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "int": ("an integer",
            lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a number",
              lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "int_list": ("a list of integers",
                 lambda v: isinstance(v, list) and all(
                     isinstance(i, int) and not isinstance(i, bool) for i in v)),
    "list": ("a list", lambda v: isinstance(v, list)),
}


class KeySpec:
    """One leaf setting: kind, default, and the values it accepts.

    ``minimum`` bounds a number, or each element of an ``int_list``; a
    ``uint`` is at least 0 without one.  A ``default`` of None means
    "absent: the model derives the value"; an explicit null is accepted
    only with ``allow_null``.
    """

    __slots__ = ("kind", "default", "minimum", "choices", "allow_null")

    def __init__(
        self,
        kind: str,
        default: Any = REQUIRED,
        *,
        minimum: Optional[float] = None,
        choices: Optional[Tuple[str, ...]] = None,
        allow_null: bool = False,
    ):
        if kind not in _KINDS:
            raise ValueError(f"unknown setting kind {kind!r}")
        self.kind = kind
        self.default = default
        self.minimum = 0 if minimum is None and kind == "uint" else minimum
        self.choices = choices
        self.allow_null = allow_null

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    def problem(self, value: Any) -> Optional[Tuple[str, str]]:
        """Why ``value`` is refused -- ``("type", message)`` for the
        wrong kind, ``("value", message)`` out of range or choices --
        or None when it is accepted."""
        label, type_ok = _KINDS[self.kind]
        if value is None:
            if self.allow_null:
                return None
            return "type", f"setting must be {label}, got None"
        if not type_ok(value):
            return "type", f"setting must be {label}, got {value!r}"
        if self.choices is not None and value not in self.choices:
            return "value", f"setting value {value!r} not in {list(self.choices)}"
        minimum = self.minimum
        if minimum is None:
            return None
        if self.kind == "int_list":
            for index, item in enumerate(value):
                if item < minimum:
                    return "value", (f"element {index} ({item}) below "
                                     f"minimum {minimum}")
        elif self.kind in ("uint", "int", "float") and value < minimum:
            return "value", f"setting value {value!r} below minimum {minimum}"
        return None


class Block:
    """A nested settings block.

    ``model`` declares the block's keys: a dict of them, a class with
    ``SETTINGS``, or -- with a ``selector`` key -- a factory base whose
    registered model that key names (``default`` when the key is
    absent; required when ``default`` is None).  ``required`` blocks
    must be present; a ``many`` block is a list of such blocks.
    """

    __slots__ = ("model", "selector", "default", "required", "many",
                 "_selector_spec")

    def __init__(
        self,
        model: Union[type, Dict[str, Any]],
        selector: Optional[str] = None,
        default: Optional[str] = None,
        *,
        required: bool = False,
        many: bool = False,
    ):
        self.model = model
        self.selector = selector
        self.default = default
        self.required = required
        self.many = many
        self._selector_spec = {
            selector: KeySpec("str", REQUIRED if default is None else default)
        }

    def select(self, settings: "Settings") -> type:
        """The registered model ``settings`` selects (``FactoryError``
        when no model has that name)."""
        assert isinstance(self.model, type) and self.selector is not None
        name = settings.read(self._selector_spec, self.selector)
        return factory.lookup(self.model, name)


Declaration = Union[type, Dict[str, Union[KeySpec, Block]]]


def spec_of(declaration: Declaration, key: str) -> Union[KeySpec, Block]:
    """``key``'s entry in a declaration dict, or in the declaration of a
    class (its most derived ``SETTINGS`` naming the key)."""
    if isinstance(declaration, dict):
        return declaration[key]
    for cls in declaration.__mro__:
        spec = vars(cls).get("SETTINGS", {}).get(key)
        if spec is not None:
            return spec
    raise KeyError(f"{declaration.__name__} declares no setting {key!r}")


def declared(declaration: Declaration) -> Dict[str, Union[KeySpec, Block]]:
    """Every entry of a declaration: the dict itself, or the union of
    ``SETTINGS`` over a class's MRO."""
    if isinstance(declaration, dict):
        return declaration
    merged: Dict[str, Union[KeySpec, Block]] = {}
    for cls in reversed(declaration.__mro__):
        merged.update(vars(cls).get("SETTINGS", {}))
    return merged


def declares(cls: type) -> bool:
    """Whether ``cls``'s own body declares its settings (else it is open)."""
    return "SETTINGS" in vars(cls)
