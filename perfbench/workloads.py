"""The benchmark's three workloads.

Each workload is a closed loop driven by one client process:

* ``paper_grid``    -- the 27 cells of Tables 1-3, simulated in-process;
* ``service_sweep`` -- a 2-worker ``ExperimentScheduler`` on a fresh
  result store: one streamed cold sweep, then single-cell cache hits;
* ``cli_session``   -- sequential ``python -m repro`` commands against a
  temporary ``--cache-dir``.

A workload's ``setup()`` is everything before the first timed operation
(imports, pool start, cache prefill).  ``measure(rounds, tracer)`` runs
whole rounds (a grid pass, a cold+warm sweep, a command sequence) and
records one ``Op`` per timed operation; the benchmark seed only
shuffles the inputs.  Every output is checked as it is produced, and by
``verify()`` after the pass; failed checks collect in ``failures``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from tracing import Tracer, burst, median, percentile, timed, REF_BURST_S

HERE = os.path.dirname(os.path.abspath(__file__))


def result_hash(result_dict: dict) -> str:
    """sha256 of the sorted-key JSON of a result's ``to_dict()``."""
    return hashlib.sha256(
        json.dumps(result_dict, sort_keys=True).encode("utf-8")
    ).hexdigest()


@dataclass
class Op:
    """One timed operation: its wall, and its wall in reference-host
    seconds (see ``tracing.timed``)."""

    kind: str
    wall: float
    ref: float
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Pass:
    """What ``measure`` returns: the timed ops plus the round count."""

    rounds: int
    wall: float
    ops: List[Op] = field(default_factory=list)

    def times(self, field: str, kind: Optional[str] = None) -> List[float]:
        """``field`` ("wall" or "ref") of the ops of ``kind`` (all ops
        when None)."""
        return [getattr(op, field) for op in self.ops
                if kind is None or op.kind == kind]

    def walls(self, kind: str) -> List[float]:
        return self.times("wall", kind)


class Workload:
    name = ""

    def __init__(self, root: str, seed: int) -> None:
        self.root = root
        self.rng = random.Random(seed)
        self.failures: List[str] = []
        self.attempted = 0
        #: Rounds run so far over all passes: a round's index is unique
        #: in the process, so stores and miss seeds are never reused.
        self.rounds_done = 0
        self.work = tempfile.mkdtemp(
            prefix=f"{self.name}-", dir=os.path.join(HERE, ".work")
        )

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, rounds: Optional[int], seconds: float,
                tracer: Tracer) -> Pass:
        """Run ``rounds`` rounds, or -- when ``rounds`` is None -- whole
        rounds until ``seconds`` have passed."""
        ops: List[Op] = []
        t0 = time.perf_counter()
        done = 0
        while (done < rounds if rounds is not None
               else done == 0 or time.perf_counter() - t0 < seconds):
            ops.extend(self.round(self.rounds_done, tracer))
            self.rounds_done += 1
            done += 1
        return Pass(rounds=done, wall=time.perf_counter() - t0, ops=ops)

    def round(self, index: int, tracer: Tracer) -> List[Op]:
        raise NotImplementedError

    def end_to_end(self, p: Pass, field: str = "ref") -> Dict[str, float]:
        """``ops_per_s`` and ``op_p50_s`` for this workload, from the
        ops' reference-second (``"ref"``) or raw (``"wall"``) times."""
        raise NotImplementedError

    def stages(self, p: Pass) -> Dict[str, float]:
        """The per-workload stage metrics (others report 0); called
        after :meth:`verify`."""
        return {}

    def verify(self) -> None:
        """Final checks after all passes (failures go to ``failures``)."""

    def layer_probes(self, tracer: Tracer) -> Dict[str, float]:
        """Workload-specific per-layer metrics, traced runs only."""
        return {}

    def profile_target(self) -> None:
        """The fixed, canonically ordered work the per-package profile
        split runs in a fresh process, so its call counts are exact."""
        raise NotImplementedError

    @staticmethod
    def sample(tracer: Tracer, samples: Dict[str, List[float]], name: str, fn):
        """Call ``fn()`` in a span; append its wall to ``samples[name]``."""
        with tracer.span(name):
            t = time.perf_counter()
            out = fn()
            samples.setdefault(name, []).append(time.perf_counter() - t)
        return out

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# -- paper_grid ------------------------------------------------------------
_TABLE_FILES = {
    "embedded": "table1_embedded_io.txt",
    "separate": "table2_separate_io.txt",
    "combined": "table3_task_combination.txt",
}
_SECTION = re.compile(r"^(?P<fs>.+?) — case (?P<case>\d):")
_THROUGHPUT = re.compile(
    r"^throughput (?P<thpt>[\d.]+) CPIs/s\s+latency (?P<lat>[\d.]+) s"
)


def parse_table(path: str) -> Dict[str, tuple]:
    """``"<fs label>/case<n>"`` -> (throughput, latency) strings of a
    committed Tables 1-3 artifact."""
    out: Dict[str, tuple] = {}
    section = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = _SECTION.match(line)
            if m:
                section = f"{m['fs']}/case{m['case']}"
                continue
            m = _THROUGHPUT.match(line)
            if m and section:
                out[section] = (m["thpt"], m["lat"])
    return out


def result_pins(d: dict) -> Dict[str, float]:
    """Simulated-time counts of one result dict (a pipeline result or a
    scenario's per-tenant results plus shared disk statistics)."""
    traffic = list(d.get("rank_traffic", {}).values())
    for tenant in d.get("tenants", {}).values():
        traffic.extend(tenant.get("rank_traffic", {}).values())
    disks = d.get("disk_stats") or {}
    return {
        "mpi.messages": sum(n for n, _ in traffic),
        "mpi.bytes": sum(b for _, b in traffic),
        "pfs.requests": sum(disks.get("requests_per_server", ())),
        "pfs.bytes_served": disks.get("bytes_served", 0),
        "pfs.disk_busy_s": sum(disks.get("busy_time_per_server", ())),
        "pfs.client_retries": disks.get("client_retries", 0),
    }


def add_pins(total: Dict[str, float], d: dict) -> None:
    for k, v in result_pins(d).items():
        total[k] = total.get(k, 0) + v


class PaperGrid(Workload):
    """Tables 1-3: {embedded, separate, combined} x {PFS sf=16, PFS
    sf=64, PIOFS sf=80} x cases 1-3, ``n_cpis=8``, ``warmup=2``, spec
    seed 0, through ``build_executor(spec).run()`` with no store.  The
    benchmark seed shuffles only the cell order."""

    name = "paper_grid"

    def setup(self) -> None:
        from repro.bench.cases import paper_cases
        from repro.bench.engine import ExperimentSpec, build_executor
        from repro.core.context import ExecutionConfig

        # The grid is single-threaded: keep it, and so its calibration
        # loops, on one CPU, so each cell's conversion to reference
        # seconds measures the CPU the cell ran on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.build_executor = build_executor
        cfg = ExecutionConfig(n_cpis=8, warmup=2)
        self.cells = [
            (f"{pipeline}/{case.fs.label()}/case{case.case_number}",
             ExperimentSpec.for_case(pipeline, case, cfg=cfg, seed=0))
            for pipeline in _TABLE_FILES
            for case in paper_cases()
        ]
        self.order = list(self.cells)
        self.rng.shuffle(self.order)
        with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as f:
            self.pins = json.load(f)["paper_grid"]
        self.tables = {
            pipeline: parse_table(os.path.join(self.root, "results", name))
            for pipeline, name in _TABLE_FILES.items()
        }
        self.sim_pins: Dict[str, float] = {}

    def round(self, index: int, tracer: Tracer) -> List[Op]:
        ops = []
        pins: Dict[str, float] = {}
        for key, spec in self.order:
            def cell():
                with tracer.span("cell", op=f"{index}:{key}"):
                    t0 = time.perf_counter()
                    with tracer.span("core.build"):
                        ex = self.build_executor(spec)
                    build = time.perf_counter() - t0
                    with tracer.span("core.run"):
                        return ex, ex.run(), build

            (ex, res, build), wall, ref = timed(cell)
            qs = ex.kernel.queue_stats()
            d = res.to_dict()
            add_pins(pins, d)
            self.check_cell(key, res, d)
            ops.append(Op("cell", wall, ref, {
                "build": build, "run": wall - build,
                "events": qs["total_entries"], "lane": qs["lane_entries"],
            }))
            del ex, res, d
        self.sim_pins = pins
        return ops

    def check_cell(self, key: str, res, d: dict) -> None:
        """One check per cell: the pinned result hash, and throughput and
        latency to 4 decimals against the committed table."""
        pipeline, fs_label, case = key.split("/")
        table = self.tables[pipeline].get(f"{fs_label}/{case}")
        got = (f"{res.throughput:.4f}", f"{res.latency:.4f}")
        self.check(
            result_hash(d) == self.pins[key] and table == got,
            f"{key}: hash {result_hash(d)[:12]} (pinned "
            f"{self.pins[key][:12]}), throughput/latency {got} "
            f"(results/{_TABLE_FILES[pipeline]}: {table})",
        )

    def profile_target(self) -> None:
        for _, spec in self.cells:
            self.build_executor(spec).run()

    def end_to_end(self, p: Pass, field: str = "ref") -> Dict[str, float]:
        times = p.times(field, "cell")
        return {"ops_per_s": len(times) / sum(times), "op_p50_s": median(times)}

    def stages(self, p: Pass) -> Dict[str, float]:
        cells = [op for op in p.ops if op.kind == "cell"]
        walls = [op.wall for op in cells]
        runs = sum(op.extra["run"] for op in cells)
        events = sum(op.extra["events"] for op in cells)
        return {
            "cells_per_s": len(walls) / sum(walls),
            "sim_events_per_s": events / runs,
            "cell_p50_s": median(walls),
            "sim.events": events / p.rounds,
            "sim.lane_ratio": sum(op.extra["lane"] for op in cells) / events,
            **self.sim_pins,
        }


# -- service_sweep ---------------------------------------------------------
class ServiceSweep(Workload):
    """A 2-worker scheduler on a fresh temp store.  Cold pass: one
    streamed job of 42 small cells -- all 9 strategies x cases 1-2 x PFS
    sf in {4, 16}, 2- and 3-tenant scenarios, radar-writer cells and
    flaky-disk cells.  Warm pass: the cells resubmitted one at a time
    (126 cache hits).  Each round starts a fresh store and scheduler.
    The seed shuffles the submission and hit orders."""

    name = "service_sweep"
    WORKERS = 2
    HITS_PER_CELL = 3

    def setup(self) -> None:
        from repro.bench.engine import ExperimentSpec, FlakyDisk, WriterLoad
        from repro.bench.store import ResultStore
        from repro.core.context import ExecutionConfig
        from repro.core.executor import FSConfig, PipelineResult
        from repro.core.pipeline import NodeAssignment
        from repro.scenario import ScenarioSpec, TenantSpec
        from repro.service import ExperimentScheduler
        from repro.stap.params import STAPParams
        from repro.strategies import strategy_names

        self.ResultStore = ResultStore
        self.Scheduler = ExperimentScheduler
        self.PipelineResult = PipelineResult
        params = STAPParams()
        cfg = ExecutionConfig(n_cpis=4, warmup=1)
        case1 = NodeAssignment.case(1, params)

        def cell(pipeline="embedded-io", case=1, sf=4, replication=1, **kw):
            return ExperimentSpec(
                assignment=NodeAssignment.case(case, params),
                pipeline=pipeline, machine="paragon",
                fs=FSConfig(kind="pfs", stripe_factor=sf,
                            replication=replication),
                params=params, cfg=cfg, seed=0, **kw,
            )

        def scenario(pipelines, sf):
            return ScenarioSpec(
                tenants=tuple(TenantSpec(assignment=case1, pipeline=p, cfg=cfg)
                              for p in pipelines),
                machine="paragon",
                fs=FSConfig(kind="pfs", stripe_factor=sf),
                params=params, seed=0,
            )

        specs = [
            cell(name, case, sf)
            for name in strategy_names() for case in (1, 2) for sf in (4, 16)
        ]
        specs += [
            scenario(("embedded-io", "separate-io"), 8),
            scenario(("embedded-io", "list-io", "collective-two-phase"), 16),
        ]
        specs += [
            cell(sf=sf, writer=WriterLoad(period=1.0, n_cpis=4, start_cpi=4,
                                          initial_delay=0.5))
            for sf in (4, 16)
        ]
        specs += [
            cell(sf=4, replication=rep,
                 flaky_disk=FlakyDisk(server=0, error_rate=0.1, seed=7))
            for rep in (1, 2)
        ]
        self.specs = specs
        self.submit_order = list(specs)
        self.rng.shuffle(self.submit_order)
        self.hit_order = list(specs)
        self.rng.shuffle(self.hit_order)
        self.cold_hashes: Dict[str, str] = {}
        self.counters: List[Dict[str, int]] = []
        self.sim_pins: Dict[str, float] = {}
        self.svc = self.new_scheduler(0)

    def new_scheduler(self, index: int):
        """A scheduler on a fresh store, with both workers answering."""
        from repro.service.model import TaskSpec
        from repro.service.testing import SLEEP_RUNNER

        self.store = self.ResultStore(os.path.join(self.work, f"store{index}"))
        svc = self.Scheduler(workers=self.WORKERS, store=self.store)
        warm = [TaskSpec(key=f"warmup{i}", payload={"duration": 0.0},
                         runner=SLEEP_RUNNER)
                for i in range(self.WORKERS)]
        svc.submit_stages([("warmup", warm)], client="setup").wait(timeout=60)
        return svc

    def round(self, index: int, tracer: Tracer) -> List[Op]:
        if index > 0:
            self.svc.shutdown()
            self.svc = self.new_scheduler(index)
        svc = self.svc
        ops = []
        first = None
        payloads: Dict[str, dict] = {}
        def cold_pass():
            nonlocal first
            with tracer.span("service.cold", op=f"{index}:cold"):
                t0 = time.perf_counter()
                with tracer.span("service.submit"):
                    handle = svc.submit(self.submit_order, client="cold")
                submit_s = time.perf_counter() - t0
                with tracer.span("service.results"):
                    for cell in handle.results(timeout=120):
                        if first is None:
                            first = time.perf_counter() - t0
                        payloads[cell.key] = cell.payload
            return handle, submit_s

        (handle, submit_s), cold, cold_ref = timed(cold_pass)
        counters = handle.counters
        self.counters.append(counters)
        self.check(counters["executed"] == len(self.specs)
                   and len(payloads) == len(self.specs),
                   f"round {index}: cold pass executed {counters['executed']}"
                   f" of {len(self.specs)} cells")
        pins: Dict[str, float] = {}
        for key, payload in payloads.items():
            h = result_hash(payload)
            add_pins(pins, payload)
            self.check(self.cold_hashes.setdefault(key, h) == h,
                       f"round {index}: payload of {key[:12]} changed")
        self.sim_pins = pins
        ops.append(Op("cold", cold, cold_ref, {
            "first": first, "submit": submit_s, "cells": len(payloads),
        }))

        # Hits take milliseconds: one calibration loop before and after
        # each batch of hits converts all of the batch's walls.
        for batch in range(self.HITS_PER_CELL):
            before = burst()
            hits = []
            for i, spec in enumerate(self.hit_order):
                with tracer.span("service.hit", op=f"{index}:{batch}:{i}"):
                    t = time.perf_counter()
                    hit = svc.submit([spec], client="warm")
                    got = hit.wait(timeout=60)
                    hits.append((spec, hit, got, time.perf_counter() - t))
            scale = 2 * REF_BURST_S / (before + burst())
            for spec, hit, got, wall in hits:
                c = hit.counters
                key = spec.spec_hash()
                self.check(c["cache_hits"] == 1 and c["executed"] == 0
                           and result_hash(got[0]) == self.cold_hashes[key],
                           f"round {index}: hit on {key[:12]} was not a "
                           f"correct cache hit ({c})")
                self.counters.append(c)
                ops.append(Op("hit", wall, wall * scale))
        return ops

    def verify(self) -> None:
        """Every streamed payload equals an inline run of its spec."""
        from repro.bench.engine import run_spec
        from repro.scenario import ScenarioSpec, run_scenario

        t0 = time.perf_counter()
        for spec in self.specs:
            runner = run_scenario if isinstance(spec, ScenarioSpec) else run_spec
            h = result_hash(runner(spec).to_dict())
            self.check(h == self.cold_hashes.get(spec.spec_hash()),
                       f"{spec.label()}: service payload differs from an "
                       "inline run")
        self.inline_s = time.perf_counter() - t0

    def profile_target(self) -> None:
        """The sweep's cells inline, each through the cache path."""
        from repro.bench.engine import run_spec
        from repro.scenario import ScenarioSpec, run_scenario

        store = self.ResultStore(os.path.join(self.work, "profile"))
        for spec in self.specs:
            runner = run_scenario if isinstance(spec, ScenarioSpec) else run_spec
            store.put_dict(spec, runner(spec).to_dict())
            rehydrate = getattr(spec, "result_from_dict",
                                self.PipelineResult.from_dict)
            rehydrate(store.get_dict(spec))

    def end_to_end(self, p: Pass, field: str = "ref") -> Dict[str, float]:
        cold = [op for op in p.ops if op.kind == "cold"]
        return {
            "ops_per_s": median([op.extra["cells"] / getattr(op, field)
                                 for op in cold]),
            "op_p50_s": median(p.times(field, "hit")),
        }

    def stages(self, p: Pass) -> Dict[str, float]:
        cold = [op for op in p.ops if op.kind == "cold"]
        hits = p.walls("hit")
        cold_walls = [op.wall for op in cold]
        totals = {k: sum(c.get(k, 0) for c in self.counters)
                  for k in ("executed", "cache_hits", "deduped", "retries")}
        out = {
            "sweep_cells_per_s": median([op.extra["cells"] / op.wall
                                         for op in cold]),
            "first_result_s": median([op.extra["first"] for op in cold]),
            "hit_p50_s": median(hits),
            "hit_p90_s": percentile(hits, 90),
            "service.submit_s": median([op.extra["submit"] for op in cold]),
            "service.executed": totals["executed"] / p.rounds,
            "service.cache_hits": totals["cache_hits"] / p.rounds,
            "service.deduped": totals["deduped"] / p.rounds,
            "service.retries": totals["retries"] / p.rounds,
            **self.sim_pins,
        }
        out["service.worker_busy_frac"] = self.inline_s / (
            self.WORKERS * median(cold_walls))
        return out

    def layer_probes(self, tracer: Tracer) -> Dict[str, float]:
        """Per-call costs of the public cache-path functions, called by
        the benchmark itself on every sweep cell: spec hash, store read,
        rehydration, serialization, and a first write to a fresh store."""
        samples: Dict[str, List[float]] = {}
        probe = functools.partial(self.sample, tracer, samples)

        sizes = []
        for rep in range(3):
            scratch = self.ResultStore(os.path.join(self.work, f"probe{rep}"))
            for spec in self.hit_order:
                probe("spec.hash", spec.spec_hash)
                d = probe("store.get", lambda: self.store.get_dict(spec))
                rehydrate = getattr(spec, "result_from_dict",
                                    self.PipelineResult.from_dict)
                res = probe("serialize.from_dict", lambda: rehydrate(d))
                d2 = probe("serialize.to_dict", res.to_dict)
                path = probe("store.put", lambda: scratch.put_dict(spec, d2))
                sizes.append(os.path.getsize(path))
        return {
            "spec.hash_s": median(samples["spec.hash"]),
            "store.get_p50_s": median(samples["store.get"]),
            "serialize.from_dict_s": median(samples["serialize.from_dict"]),
            "serialize.to_dict_s": median(samples["serialize.to_dict"]),
            "store.put_p50_s": median(samples["store.put"]),
            "store.entry_bytes_mean": sum(sizes) / len(sizes),
        }

    def close(self) -> None:
        svc = getattr(self, "svc", None)
        if svc is not None:
            svc.shutdown()
        super().close()


# -- cli_session -----------------------------------------------------------
#: The cached cell ``run`` hits; setup fills the cache with it.
WARM_ARGV = ["run", "--case", "1", "--stripe-factor", "16", "--cpis", "3",
             "--warmup", "1"]
_PRINTED = re.compile(r"^throughput : (?P<thpt>[\d.]+) CPIs/s", re.M)


class CliSession(Workload):
    """Sequential ``python -m repro`` commands against a temp cache:
    ``--help``; ``run`` on the cached cell (a hit); ``run`` with a fresh
    seed-derived ``--seed`` (a miss that simulates and writes the store);
    ``results list``; ``analyze results/ --format json``.  The seed only
    derives the miss seeds."""

    name = "cli_session"

    def setup(self) -> None:
        self.cache = os.path.join(self.work, "cache")
        self.miss_seeds = self.rng.sample(range(1, 10**6), 256)
        code, out, _ = self.repro(WARM_ARGV + ["--cache-dir", self.cache])
        entries = self.entries()
        if code != 0 or len(entries) != 1:
            raise RuntimeError(f"cache prefill failed (exit {code})")
        self.warm_hash = entries[0]
        self.warm_thpt = self.stored_throughput(self.warm_hash)
        self.analyze_out: Optional[str] = None
        self.misses = 0

    def repro(self, argv: List[str]):
        """One ``python -m repro`` command (the client's environment
        already puts the checkout's ``src/`` on ``PYTHONPATH``)."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv], cwd=self.root,
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def entries(self) -> List[str]:
        return sorted(n[:-5] for n in os.listdir(self.cache)
                      if n.endswith(".json"))

    def stored_throughput(self, spec_hash: str) -> str:
        with open(os.path.join(self.cache, spec_hash + ".json"),
                  encoding="utf-8") as f:
            return f"{json.load(f)['result']['measurement']['throughput']:.4f}"

    def commands(self, index: int):
        seed = str(self.miss_seeds[index % len(self.miss_seeds)])
        cache = ["--cache-dir", self.cache]
        return [
            ("help", ["--help"]),
            ("run_warm", WARM_ARGV + cache),
            ("run_miss", WARM_ARGV + ["--seed", seed] + cache),
            ("results_list", ["results", "list"] + cache),
            ("analyze", ["analyze", "results/", "--format", "json"] + cache),
        ]

    def round(self, index: int, tracer: Tracer) -> List[Op]:
        ops = []
        for kind, argv in self.commands(index):
            before = set(self.entries()) if kind == "run_miss" else None
            def command():
                with tracer.span(f"cli.{kind}", op=f"{index}:{kind}"):
                    return self.repro(argv)

            (code, out, err), wall, ref = timed(command)
            self.check_command(kind, index, code, out, err, before)
            ops.append(Op(kind, wall, ref))
        return ops

    def check_command(self, kind, index, code, out, err, before) -> None:
        where = f"round {index}: repro {kind}"
        if code != 0:
            self.check(False, f"{where} exited {code}: {err.strip()[-200:]}")
            return
        if kind == "help":
            self.check(out.startswith("usage:"), f"{where}: no usage text")
        elif kind in ("run_warm", "run_miss"):
            printed = _PRINTED.search(out)
            if kind == "run_warm":
                ok = (f"cell {self.warm_hash[:12]} served from cache" in out
                      and printed and printed["thpt"] == self.warm_thpt)
            else:
                new = sorted(set(self.entries()) - before)
                ok = (len(new) == 1 and "served from cache" not in out
                      and printed
                      and printed["thpt"] == self.stored_throughput(new[0]))
                self.misses += 1
            self.check(bool(ok), f"{where}: printed throughput does not "
                       "match the cached result")
        elif kind == "results_list":
            self.check(f"{1 + self.misses} cached cell(s)" in out,
                       f"{where}: expected {1 + self.misses} cached cells")
        elif kind == "analyze":
            try:
                parsed = json.loads(out)
            except ValueError:
                parsed = None
            if self.analyze_out is None and parsed is not None:
                self.analyze_out = out
            self.check(parsed is not None and out == self.analyze_out
                       and parsed.get("win_loss")
                       and not parsed["sources"].get("errors"),
                       f"{where}: analysis JSON missing, failing or not "
                       "repeatable")

    def profile_target(self) -> None:
        """The session's commands in-process (``--help`` aside: it is
        argparse only), with a fixed miss seed."""
        from repro.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            for kind, argv in self.commands(0):
                if kind == "run_miss":
                    argv = WARM_ARGV + ["--seed", "424242",
                                        "--cache-dir", self.cache]
                if kind != "help":
                    main(argv)

    def end_to_end(self, p: Pass, field: str = "ref") -> Dict[str, float]:
        times = p.times(field)
        return {"ops_per_s": len(times) / sum(times), "op_p50_s": median(times)}

    def stages(self, p: Pass) -> Dict[str, float]:
        return {
            "cli_help_p50_s": median(p.walls("help")),
            "cli_run_warm_p50_s": median(p.walls("run_warm")),
            "cli_run_miss_p50_s": median(p.walls("run_miss")),
            "analyze_s": median(p.walls("analyze")),
        }

    def layer_probes(self, tracer: Tracer) -> Dict[str, float]:
        """In-process costs of the warm ``run`` stages and of the
        analyzer, each through the public function the command uses."""
        from repro.analysis import analyze_sweep, render
        from repro.bench.engine import ExperimentSpec
        from repro.bench.store import ResultStore
        from repro.cli import build_parser, main
        from repro.core.executor import PipelineResult
        from repro.trace.report import format_table

        samples: Dict[str, List[float]] = {}
        probe = functools.partial(self.sample, tracer, samples)

        store = ResultStore(self.cache)
        spec_dict = store.load(self.warm_hash)["spec"]
        argv = WARM_ARGV + ["--cache-dir", self.cache]
        results_dir = os.path.join(self.root, "results")
        for _ in range(5):
            def spec_build():
                build_parser().parse_args(argv)
                return ExperimentSpec.from_dict(spec_dict)

            spec = probe("cli.spec_build", spec_build)
            d = probe("cli.cache_probe", lambda: store.get_dict(spec))
            res = probe("cli.deserialize", lambda: PipelineResult.from_dict(d))
            probe("cli.render", lambda: format_table(
                ["task", "recv (s)", "compute (s)", "send (s)", "T_i (s)"],
                [(n, s.recv, s.compute, s.send, s.total)
                 for n, s in res.measurement.task_stats.items()]))
            with contextlib.redirect_stdout(io.StringIO()):
                code = probe("cli.main_inproc", lambda: main(argv))
            self.check(code == 0, f"in-process repro run exited {code}")
            analysis = probe("analysis.load",
                             lambda: analyze_sweep([results_dir],
                                                   cache_dir=self.cache))
            probe("analysis.render", lambda: render(analysis, fmt="json"))
        return {
            "cli.spec_build_s": median(samples["cli.spec_build"]),
            "cli.cache_probe_s": median(samples["cli.cache_probe"]),
            "cli.deserialize_s": median(samples["cli.deserialize"]),
            "cli.render_s": median(samples["cli.render"]),
            "cli.main_inproc_s": median(samples["cli.main_inproc"]),
            "analysis.load_s": median(samples["analysis.load"]),
            "analysis.render_s": median(samples["analysis.render"]),
        }


WORKLOADS = {w.name: w for w in (PaperGrid, ServiceSweep, CliSession)}
