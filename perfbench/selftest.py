"""Self-test of the benchmark's exact call counting.

Two checks:

1. Two distinct dataclass ``__init__`` methods both count.  Both are
   generated code that ``pstats`` keys as ``("<string>", 1,
   "__init__")``, so keying by that triple keeps only one of them.
2. The smoke cell (embedded, case 1, PFS sf=16, ``n_cpis=4``,
   ``warmup=1``) totals 128,786 calls, identically in two processes that
   profile it in opposite orders next to another cell.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/selftest.py

Prints one JSON line (``checks``, ``failures``, ``smoke_calls``) and
exits 1 if a check failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

from tracing import profile, split_by_package

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Calls of the smoke cell: the sum of ``getstats()`` call counts of
#: ``run_spec`` under cProfile, the ``profiler.disable`` call included.
SMOKE_CALLS = 128_786


@dataclass
class _First:
    x: int = 0


@dataclass
class _Second:
    y: int = 0


def dataclass_inits_count() -> bool:
    stats = profile(lambda: (_First(), _Second()))
    inits = [e for e in stats if not isinstance(e.code, str)
             and e.code.co_filename == "<string>"
             and e.code.co_name == "__init__"]
    split = split_by_package(stats, SRC)
    return (len(inits) == 2 and sum(e.callcount for e in inits) == 2
            and split["other"]["calls"] >= 2)


def cell_calls(order: str) -> dict:
    """Calls of the smoke cell and of a second cell, profiled in
    ``order`` ("smoke-first" or "other-first") in this process."""
    from repro.bench.engine import ExperimentSpec, run_spec
    from repro.core.context import ExecutionConfig
    from repro.core.executor import FSConfig
    from repro.core.pipeline import NodeAssignment
    from repro.stap.params import STAPParams

    def spec(pipeline, case, stripe_factor):
        return ExperimentSpec(
            assignment=NodeAssignment.case(case, STAPParams()),
            pipeline=pipeline, machine="paragon",
            fs=FSConfig(kind="pfs", stripe_factor=stripe_factor),
            cfg=ExecutionConfig(n_cpis=4, warmup=1), seed=0,
        )

    cells = {"smoke": spec("embedded", 1, 16), "other": spec("separate", 2, 64)}
    names = ["smoke", "other"] if order == "smoke-first" else ["other", "smoke"]
    return {
        name: sum(e.callcount for e in profile(run_spec, cells[name]))
        for name in names
    }


def main() -> int:
    if sys.argv[1:] == ["--order", "other-first"]:
        print(json.dumps(cell_calls("other-first")))
        return 0
    failures = []
    if not dataclass_inits_count():
        failures.append("selftest: two dataclass __init__s did not both count")
    here = cell_calls("smoke-first")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--order", "other-first"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    there = json.loads(proc.stdout.strip().splitlines()[-1])
    if not (here == there and here["smoke"] == SMOKE_CALLS):
        failures.append(
            f"selftest: smoke cell calls {here['smoke']} / {there['smoke']} "
            f"(other cell {here['other']} / {there['other']}), "
            f"expected {SMOKE_CALLS} in both processes"
        )
    print(json.dumps({"checks": 2, "failures": failures,
                      "smoke_calls": here["smoke"]}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
