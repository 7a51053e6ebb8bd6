"""Benchmark-side measurement helpers: spans, per-package profiles, imports.

Everything here observes the program from outside.  Spans wrap the
benchmark's own calls into the program's public functions; the profile
split reads ``cProfile.Profile.getstats()``; import costs come from
``python -X importtime`` child processes.  Nothing under ``src/`` is
touched.
"""

from __future__ import annotations

import cProfile
import gc
import os
import statistics
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Layers of ``src/repro`` reported by the profile split, in report order.
#: ``bench`` is the experiment engine and result store; top-level
#: modules (``cli.py``, ``api.py``, ``errors.py``, ``__main__.py``)
#: belong to ``cli``.
PACKAGES = (
    "sim", "mpi", "machine", "pfs", "strategies", "io", "core", "scenario",
    "stap", "trace", "bench", "service", "analysis", "obs", "cli",
)


# -- statistics ----------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 100] of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


# -- host-speed calibration ------------------------------------------------
#: Iterations of the calibration loop, and the loop's duration on the
#: reference host (a quiet 2-core x86 container running CPython 3.11).
#: The loop is plain Python that calls nothing of the program, so no
#: change to the program can move it.
BURST_ITERS = 250_000
REF_BURST_S = 0.015


def _loop() -> float:
    t = time.perf_counter()
    acc = 0
    for i in range(BURST_ITERS):
        acc += i * i
    return time.perf_counter() - t


def burst() -> float:
    """Mean wall seconds of the calibration loop on each CPU this process
    may run on: the host's speed now.  Each CPU is timed on its own,
    because the work being timed may run on any of them (child
    processes, pool workers) and their speeds differ."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_loop())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def timed(fn):
    """Run ``fn()``; return ``(result, wall_s, ref_s)``.

    ``ref_s`` is the wall converted to reference-host seconds with
    calibration loops run just before and just after: this host's speed
    swings by tens of percent within seconds (other tenants), and the
    conversion cancels most of that swing from run to run.
    """
    before = burst()
    t = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t
    after = burst()
    return out, wall, wall * 2 * REF_BURST_S / (before + after)


# -- spans ---------------------------------------------------------------
class Tracer:
    """In-memory span recorder.

    A span has a name, start, end, parent span id and the id of the
    operation it belongs to; spans are opened by the benchmark's client
    thread only, so they nest on one stack.  ``enabled=False`` makes
    :meth:`span` a no-op context, so the untraced pass runs the same
    code without recording anything.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []

    @contextmanager
    def span(self, name: str, op: Optional[str] = None):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "name": name,
            "op": op if op is not None else (parent["op"] if parent else None),
            "parent": parent["id"] if parent else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus the part of the
        interval its child spans cover."""
        children: Dict[int, List[Dict[str, Any]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out: Dict[str, float] = {}
        for s in self.spans:
            covered = _union_length(
                (c["start"], c["end"]) for c in children.get(s["id"], ())
            )
            out[s["name"]] = out.get(s["name"], 0.0) + (
                s["end"] - s["start"] - covered
            )
        return out


def _union_length(intervals: Iterable[tuple]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# -- per-package profile split --------------------------------------------
def package_of(code: Any, src_root: str) -> str:
    """Layer of one profiled code object.

    ``code`` is a code object for Python functions and a string for C
    functions (``builtin``).  Python code outside ``src/repro`` -- the
    standard library, numpy, and code generated at run time such as
    dataclass ``__init__`` methods, whose file is ``<string>`` -- is
    ``other``.
    """
    if isinstance(code, str):
        return "builtin"
    filename = code.co_filename
    prefix = os.path.join(src_root, "repro") + os.sep
    if not filename.startswith(prefix):
        return "other"
    head = filename[len(prefix):].split(os.sep)[0]
    return head if head in PACKAGES else "cli"


def split_by_package(stats: Iterable[Any], src_root: str) -> Dict[str, Dict[str, float]]:
    """Exact calls and self time per layer from ``Profile.getstats()``.

    Entries are summed per code object, never keyed by (file, line,
    name) as ``pstats`` does: that key collapses distinct functions
    which share it -- every dataclass-generated ``__init__`` is
    ``("<string>", 1, "__init__")`` -- and silently drops their calls.
    """
    out: Dict[str, Dict[str, float]] = {}
    for entry in stats:
        group = out.setdefault(
            package_of(entry.code, src_root), {"calls": 0, "self_s": 0.0}
        )
        group["calls"] += entry.callcount
        group["self_s"] += entry.inlinetime
    return out


def profile(fn, *args) -> list:
    """``Profile.getstats()`` of ``fn(*args)``.  The garbage collector is
    off meanwhile, so that no collection runs finalizers inside the
    profile and the call counts repeat exactly."""
    gc.collect()
    gc.disable()
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        fn(*args)
        profiler.disable()
    finally:
        gc.enable()
    return profiler.getstats()


# -- -X importtime ---------------------------------------------------------
def parse_importtime(stderr: str) -> List[Dict[str, Any]]:
    """Entries of ``-X importtime`` output, with each entry's ancestors.

    The interpreter prints imports in post-order (children first, more
    deeply indented); walking the lines backwards turns that into a
    pre-order walk in which a stack holds the ancestors.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum_us, name = line.split("|", 2)
        try:
            cumulative = int(cum_us)
        except ValueError:  # the header line
            continue
        # "| " precedes two spaces of indentation per nesting level.
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), cumulative))
    out: List[Dict[str, Any]] = []
    stack: List[tuple] = []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        out.append({
            "name": name,
            "cumulative_s": cumulative / 1e6,
            "ancestors": [n for _, n in stack],
        })
        stack.append((depth, name))
    return out


def outermost_import_s(entries: List[Dict[str, Any]], package: str) -> float:
    """Import time of ``package`` and its submodules, counted once: the
    sum of cumulative times of entries with no ancestor inside it."""

    def inside(name: str) -> bool:
        return name == package or name.startswith(package + ".")

    return sum(
        e["cumulative_s"]
        for e in entries
        if inside(e["name"]) and not any(inside(a) for a in e["ancestors"])
    )
