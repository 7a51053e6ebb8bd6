"""First-class I/O strategies: registry, readers, and built-ins.

See ``docs/io_strategies.md`` for the strategy catalogue and how to
write a custom strategy.
"""

from repro._lazy import lazy_exports

# Importing the built-ins populates the registry; they load the readers
# (and numpy) only when a reader is built, so the names are cheap to list.
from repro.strategies import builtin as _builtin  # noqa: F401

#: Public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    "IOStrategy": "repro.strategies.base",
    "register": "repro.strategies.base",
    "get_strategy": "repro.strategies.base",
    "strategy_names": "repro.strategies.base",
    "strategy_for_spec": "repro.strategies.base",
    "DROPPED": "repro.strategies.readers",
    "SlabReader": "repro.strategies.readers",
    "SyncReader": "repro.strategies.readers",
    "AsyncPrefetchReader": "repro.strategies.readers",
    "SievingSyncReader": "repro.strategies.readers",
    "SievingAsyncReader": "repro.strategies.readers",
    "ListIOReader": "repro.strategies.readers",
    "TwoPhaseReader": "repro.strategies.readers",
    "open_round_robin": "repro.strategies.readers",
    "declare_access_pattern": "repro.strategies.readers",
    "make_adaptive_reader": "repro.strategies.builtin",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
