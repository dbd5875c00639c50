"""Lazy package exports (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` its ``globals()`` and
a ``module -> names`` table; it gets back the module-level
``__getattr__`` and ``__dir__``.  A name is imported from its module
on first access and cached in the package namespace, so later reads
are plain attribute lookups.  Importing the package itself imports
none of the table's modules: a process that uses one corner of a
package (a process shard serving cache hits) pays only for that
corner.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    *namespace*, exporting each module's names in *table* lazily."""
    package = namespace["__name__"]
    owner = {name: module for module, names in table.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__
