"""Smart object factories (paper §III-D).

SuperSim lets developers drop new component models into the code base
with zero changes to existing files: a source file calls
``registerWithObjectFactory("my_arch", ...)`` and the factory for the
corresponding base class can construct it by name from the JSON
settings.

The Python analog is a registry keyed by ``(base_class, name)`` and a
``register`` decorator.  A new model registers itself at import time::

    @factory.register(Router, "my_arch")
    class MyArchRouter(Router):
        ...

and the simulator builds it with ``factory.create(Router, "my_arch", ...)``
where the name usually comes from the settings block's ``"type"`` key.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple, Type, TypeVar

T = TypeVar("T")


class FactoryError(LookupError):
    """Raised when a requested model name is not registered."""


class ObjectFactory:
    """Registry of named implementations per abstract base class."""

    def __init__(self):
        self._registry: Dict[Tuple[type, str], type] = {}

    def register(self, base: Type[T], name: str) -> Callable[[Type[T]], Type[T]]:
        """Class decorator registering an implementation of ``base``.

        Registering two different classes under the same (base, name)
        pair is an error.  A class with the qualified name of the
        registered one is the same class: a module imported twice under
        different names (e.g. in test runners) defines it twice, and the
        first registration stands, so lookups do not depend on import
        order.
        """

        def decorator(cls: Type[T]) -> Type[T]:
            if not issubclass(cls, base):
                raise TypeError(
                    f"{cls.__name__} must derive from {base.__name__} "
                    f"to register as a {base.__name__} model"
                )
            key = (base, name)
            existing = self._registry.setdefault(key, cls)
            if existing.__qualname__ != cls.__qualname__:
                raise FactoryError(
                    f"{base.__name__} model {name!r} already registered "
                    f"as {existing.__name__}"
                )
            return cls

        return decorator

    def create(self, base: Type[T], name: str, *args: Any, **kwargs: Any) -> T:
        """Construct the implementation of ``base`` registered as ``name``."""
        key = (base, name)
        if key not in self._registry:
            raise FactoryError(
                f"no {base.__name__} model named {name!r}; "
                f"known: {self.names(base)}"
            )
        return self._registry[key](*args, **kwargs)

    def lookup(self, base: Type[T], name: str) -> Type[T]:
        """Return the registered class without constructing it."""
        key = (base, name)
        if key not in self._registry:
            raise FactoryError(
                f"no {base.__name__} model named {name!r}; "
                f"known: {self.names(base)}"
            )
        return self._registry[key]

    def names(self, base: type) -> List[str]:
        """All registered model names for ``base``, sorted."""
        return sorted(name for (b, name) in self._registry if b is base)

    def is_registered(self, base: type, name: str) -> bool:
        return (base, name) in self._registry


#: The process-global factory used by all built-in models.
GLOBAL_FACTORY = ObjectFactory()

register = GLOBAL_FACTORY.register
create = GLOBAL_FACTORY.create
lookup = GLOBAL_FACTORY.lookup
names = GLOBAL_FACTORY.names
is_registered = GLOBAL_FACTORY.is_registered
