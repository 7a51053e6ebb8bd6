"""One benchmark client process (started by ``run.py``).

Modes:

* ``setup``   -- set the workload up and exit (a set-up time sample);
* ``run``     -- set up, then measure whole rounds for ``--seconds``
  with tracing off, and verify every output;
* ``trace``   -- as ``run``, then replay the same rounds with spans on,
  time the workload's per-layer probes, and take the host yardstick at
  the start and the end;
* ``profile`` -- set up, then run the workload's fixed profile target
  under cProfile and split calls and self time by package.

The last line of standard output is one JSON object; ``ready_at`` is
the ``time.perf_counter()`` reading (CLOCK_MONOTONIC, shared by every
process on the host) when set-up finished.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from tracing import Tracer, profile, split_by_package
from workloads import WORKLOADS


def peak_rss_mb() -> float:
    """Max resident set of this process and its reaped children, MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def yardstick() -> float:
    """Host speed: kernel entries per second of the perfsuite workload."""
    from repro.bench.perfsuite import measure_kernel_ops

    return float(measure_kernel_ops()["entries_per_s"])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "trace", "profile"))
    parser.add_argument("--root", required=True)
    args = parser.parse_args()

    # The workloads are sized for a 2-core host (a 2-worker pool); on a
    # larger one, keep them and the calibration loops on two CPUs.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])

    import repro

    src = os.path.join(args.root, "src")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")

    wl = WORKLOADS[args.workload](args.root, args.seed)
    out = {}
    try:
        wl.setup()
        out["ready_at"] = time.perf_counter()
        if args.mode == "profile":
            out["split"] = split_by_package(profile(wl.profile_target), src)
        elif args.mode in ("run", "trace"):
            trace = args.mode == "trace"
            if trace:
                ys_start = yardstick()
            plain = wl.measure(None, args.seconds, Tracer(enabled=False))
            wl.verify()
            out["rounds"] = plain.rounds
            out["wall"] = plain.wall
            out["end_to_end"] = wl.end_to_end(plain)
            raw = wl.end_to_end(plain, field="wall")
            out["stages"] = {**wl.stages(plain),
                             **{f"raw.{k}": v for k, v in raw.items()}}
            if trace:
                # One round again with spans on.  Its overhead compares
                # reference-second times, so that host-speed swings
                # between the passes cancel, against the untraced mean
                # per round.
                tracer = Tracer()
                traced = wl.measure(1, args.seconds, tracer)
                out["tracing_overhead_frac"] = (
                    sum(traced.times("ref"))
                    / (sum(plain.times("ref")) / plain.rounds) - 1.0
                )
                out["probes"] = wl.layer_probes(tracer)
                out["span_self_s"] = tracer.self_times()
                out["spans"] = tracer.spans
                out["yardstick"] = [ys_start, yardstick()]
            out["attempted"] = wl.attempted
            out["failures"] = wl.failures
    finally:
        wl.close()
    out["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.write("\n" + json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
