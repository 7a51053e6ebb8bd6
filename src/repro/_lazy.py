"""PEP 562 lazy re-exports for package ``__init__`` modules.

A package lists each public name once, with the module that defines it.
That module is imported the first time the name is read, so importing
the package itself loads nothing it re-exports: ``import repro`` does
not pull numpy or scipy into a process that only needs the CLI parser
or a timing cell.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Dict[str, str],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module-level ``(__getattr__, __dir__)`` pair for a package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    public name to its defining module.  A name whose module is the
    package's own submodule of that name re-exports the submodule.  A
    resolved name is cached in ``namespace``, so later reads are plain
    attribute lookups.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(exports[name])
        value = module if module.__name__ == f"{package}.{name}" else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
