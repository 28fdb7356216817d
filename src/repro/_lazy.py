"""PEP 562 lazy attributes for package ``__init__`` modules.

A package lists the public names it re-exports, grouped by the module
that defines them; :func:`attach` returns the package's ``__all__`` and
the module-level ``__getattr__`` and ``__dir__`` that import a module
only when one of its names is first read. The resolved value is written
into the package's globals, so the next read is an ordinary attribute
lookup. ``from package import Name`` and ``import package.submodule``
keep working, and ``import package`` alone costs almost nothing: a
``repro grid`` answered from the result cache never imports numpy, the
workload generators or the engine.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping


def attach(
    package: str,
    exports: Mapping[str, Iterable[str]],
    *,
    computed: Mapping[str, Callable[[], object]] = {},
    eager: Iterable[str] = (),
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module to the names read from it
    lazily; ``computed`` maps names whose value a zero-argument function
    builds on first read (a registry dict of lazily imported classes);
    ``eager`` lists public names the package defines itself.
    """
    owner = {name: module for module, names in exports.items() for name in names}
    public = [*owner, *computed, *eager]

    def __getattr__(name: str) -> object:
        if name in computed:
            value = computed[name]()
        elif name in owner:
            value = getattr(importlib.import_module(owner[name]), name)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(public) | set(vars(sys.modules[package])))

    return public, __getattr__, __dir__
