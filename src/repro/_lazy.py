"""Lazy package exports (PEP 562).

A package ``__init__`` names the module each public name lives in, and the
module is imported on first use of one of its names.  So ``import
repro.runtime.procs`` — what every address-space process runs — loads the
runtime and nothing else: not the analysis toolchain, the HTTP exposition,
the simulator or ``asyncio``.  Each package keeps its ``__all__`` as the
list of what it exports; ``from pkg import *`` resolves every name in it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``.

    ``exports`` maps a module to the names the package re-exports from it.
    Any other name resolves to the submodule of that name, as it did when a
    package imported its submodules eagerly.  A resolved name is stored on
    the package, so the next lookup does not come back here.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *home})

    return __getattr__, __dir__
