"""Repository benchmark: one command, three workloads, every metric.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a separate traced run and writes its spans and
per-package profile split to ``perfbench/out/``.  The metric names and
units come from ``BENCHMARK.json``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is built from the checkout's ``src/``; each measuring
process is a child (``session.py``) so that set-up time -- interpreter
start, imports, worker pool, cache prefill -- is sampled several times
per run from outside.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

from tracing import (PACKAGES, burst, median, outermost_import_s,
                     parse_importtime, REF_BURST_S)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up samples per run, each a set-up-only child.
SETUP_PROBES = 3

#: Every child must have ended this long after the benchmark started.
DEADLINE_S = 170.0
_START = time.monotonic()

#: Child script timing ``import repro`` and loading after a timing cell.
_IMPORT_PROBE = """
import json, sys, time
t = time.perf_counter()
import repro
import_s = time.perf_counter() - t
modules = len(sys.modules)
from repro.bench.perfsuite import measure_cell
measure_cell("embedded", 1, n_cpis=2, warmup=1, stripe_factor=16)
print(json.dumps({"import_s": import_s, "modules": modules,
                  "scipy": int("scipy" in sys.modules)}))
"""


class ChildError(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = os.path.join(HERE, ".work")
    return env


def spawn(argv: List[str]) -> Tuple[int, str, str]:
    """Run a Python child from the checkout root: (exit code, stdout,
    stderr).  The child leads its own process group, so that on the
    deadline it is killed together with everything it started (pool
    workers, ``repro`` subprocesses)."""
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - _START)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{' '.join(argv[:2])} overran the deadline")
    return proc.returncode, stdout, stderr


def run_child(argv: List[str], ok_codes=(0,)) -> Dict[str, Any]:
    """Run a Python child; parse the JSON of its last output line."""
    code, stdout, stderr = spawn(argv)
    lines = stdout.strip().splitlines()
    if code not in ok_codes or not lines:
        raise ChildError(
            f"{' '.join(argv[:2])} exited {code}: {stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def session(args, mode: str) -> Dict[str, Any]:
    """One session child's result; ``launched_at`` is when it started."""
    launched = time.perf_counter()
    out = run_child([
        os.path.join(HERE, "session.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--root", ROOT,
    ])
    out["launched_at"] = launched
    return out


def setup_sample(args) -> Tuple[float, float]:
    """(raw, reference) seconds from a set-up-only child's launch to the
    end of its set-up, bracketed by calibration loops like every
    end-to-end time (see ``tracing.timed``)."""
    before = burst()
    out = session(args, "setup")
    after = burst()
    raw = out["ready_at"] - out["launched_at"]
    return raw, raw * 2 * REF_BURST_S / (before + after)


def import_metrics() -> Dict[str, float]:
    """``import repro`` wall, module count and scipy after a timing
    cell (3 fresh interpreters), plus scipy's and the analyzer's share
    of ``-X importtime``."""
    probes = [run_child(["-c", _IMPORT_PROBE]) for _ in range(3)]
    entries = parse_importtime(spawn(["-X", "importtime", "-c", "import repro"])[2])
    return {
        "import.repro_s": median([p["import_s"] for p in probes]),
        "import.modules_loaded": probes[0]["modules"],
        "import.scipy_loaded": probes[0]["scipy"],
        "import.scipy_s": outermost_import_s(entries, "scipy"),
        "import.analysis_s": outermost_import_s(entries, "repro.analysis"),
    }


def per_layer(args, main: Dict[str, Any], raw_setup_s: float,
              failures: List[str]) -> Dict[str, float]:
    """The per-layer values of a traced run; a layer the workload does
    not exercise is absent here and reported as 0."""
    values: Dict[str, float] = {"raw.setup_s": raw_setup_s}
    values.update(main["stages"])
    values.update(main["probes"])
    # Spans come from one traced round: for the grid, one pass.
    span_self = main["span_self_s"]
    values["core.build_s"] = span_self.get("core.build", 0.0)
    values["core.run_s"] = span_self.get("core.run", 0.0)
    values["spans.count"] = len(main["spans"])
    values["wall_s"] = main["wall"]
    values["tracing_overhead_frac"] = main["tracing_overhead_frac"]

    ys_start, ys_end = main["yardstick"]
    yard = (ys_start + ys_end) / 2.0
    values["host.yardstick_entries_per_s"] = yard
    values["host.yardstick_drift_frac"] = ys_end / ys_start - 1.0
    # A wall times host speed: how many yardstick kernel entries (in
    # millions) this host processes in that time.
    for name in ("wall_s", "raw.setup_s", "cell_p50_s", "first_result_s",
                 "hit_p50_s", "hit_p90_s", "cli_help_p50_s",
                 "cli_run_warm_p50_s", "cli_run_miss_p50_s", "analyze_s"):
        stage = name[:-2].replace("raw.", "")
        values[f"norm.{stage}"] = values.get(name, 0.0) * yard / 1e6

    profile = session(args, "profile")
    split = profile["split"]
    for group in (*PACKAGES, "builtin", "other"):
        g = split.get(group, {"calls": 0, "self_s": 0.0})
        values[f"{group}.calls"] = g["calls"]
        values[f"{group}.self_s"] = g["self_s"]
    values["calls_total"] = sum(g["calls"] for g in split.values())
    values.update(import_metrics())

    if args.workload == "paper_grid":
        selftest = run_child([os.path.join(HERE, "selftest.py")], ok_codes=(0, 1))
        failures.extend(selftest["failures"])
        values["selftest.smoke_calls"] = selftest["smoke_calls"]
        main["attempted"] += selftest["checks"]

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}.trace.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans": main["spans"], "span_self_s": span_self,
                   "package_split": split}, f)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = [os.path.join(ROOT, "src", "repro", "__init__.py"),
              os.path.join(ROOT, "BENCHMARK.json"),
              os.path.join(ROOT, "results", "table1_embedded_io.txt")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"error: not a repository checkout, missing {missing}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)

    try:
        raw_setups, setups = zip(*(setup_sample(args)
                                   for _ in range(SETUP_PROBES)))
        main_run = session(args, "trace" if args.trace else "run")
        failures = list(main_run["failures"])
        if args.trace:
            values = per_layer(args, main_run, median(raw_setups), failures)
        else:
            values = dict(main_run["end_to_end"], setup_s=median(setups),
                          peak_rss_mb=main_run["peak_rss_mb"])
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = max(1, main_run["attempted"])
    values["failed_frac"] = len(failures) / attempted
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    if args.trace:
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
