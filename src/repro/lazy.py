"""Lazy package exports (PEP 562).

A package names each public name once, with the module that defines it,
and imports that module the first time the name is read.  So ``import
repro.core.runner`` loads the runner and what the runner imports, not
every module that ``repro`` and ``repro.core`` export from.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable


def lazy_exports(
    namespace: dict, table: "dict[str, str]"
) -> "tuple[Callable[[str], object], Callable[[], list[str]]]":
    """The ``__getattr__`` and ``__dir__`` of the package whose globals
    are *namespace*, where *table* maps each exported name to the module
    that defines it.  A name, once read, is stored in *namespace*, so its
    module is looked up only the first time."""

    def __getattr__(name: str) -> object:
        if name not in table:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(import_module(table[name]), name)
        return value

    def __dir__() -> "list[str]":
        return sorted({*namespace, *table})

    return __getattr__, __dir__
