"""The pipeline executor: run a pipeline spec on a simulated machine.

:class:`PipelineExecutor` wires everything together:

1. build the machine from a preset (compute nodes = the pipeline's total,
   I/O nodes = the file system's stripe directories);
2. build the file system (PFS or PIOFS) and the round-robin cube files;
3. bind the pipeline's tasks to communicator ranks and spawn one DES
   process per task node running its body;
4. run the kernel to completion and measure.

``FSConfig`` (:mod:`repro.core.config`) carries the file-system choice — ``kind`` selects paper
semantics (``"pfs"`` async-capable, ``"piofs"`` synchronous-only) and
``stripe_factor`` is the paper's central knob.

Since the scenario layer, the executor is two-tier: a :class:`Substrate`
bundles the shared execution fabric (kernel, machine/mesh, file system)
and :class:`PipelineExecutor` either *builds* a private substrate (the
classic standalone path — bit-identical to the pre-refactor executor)
or *receives* one from a :class:`~repro.scenario.ScenarioExecutor`
hosting several tenant pipelines on the same disks and links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.core.bodies import body_for
from repro.core.config import ExecutionConfig, FSConfig
from repro.core.context import TaskContext
from repro.core.metrics import measure
from repro.core.pipeline import PipelineSpec
from repro.core.plan import PipelinePlan
from repro.core.result import PipelineResult
from repro.core.validate import validate_plan
from repro.io.fileset import CubeFileSet, CubeSource
from repro.machine.presets import MachinePreset
from repro.mpi.communicator import Communicator
from repro.obs import MetricsRegistry, Sampler, instrument_pipeline
from repro.obs.instruments import DEFAULT_BUCKETS
from repro.pfs.blockdev import DiskSpec
from repro.pfs.pfs import PFS
from repro.pfs.piofs import PIOFS
from repro.sim.kernel import Kernel
from repro.stap.params import STAPParams
from repro.stap.scenario import Scenario
from repro.strategies import strategy_for_spec
from repro.trace.collector import TraceCollector

__all__ = [
    "FSConfig",
    "ExecutionConfig",
    "PipelineExecutor",
    "PipelineResult",
    "Substrate",
    "HINT_CAPABILITIES",
    "validate_fs_hints",
]

#: hint name -> (required FS capability attribute or None, human summary).
#: ``None`` means the hint is valid on every file system kind.
HINT_CAPABILITIES = {
    "sieve_buffer_size": (None, "data-sieving alignment granularity (any FS)"),
    "cb_nodes": (None, "collective two-phase aggregator cap (any FS)"),
    "list_io_max_runs": (
        "supports_list_io",
        "list-I/O batch split (needs list I/O: kind='pfs')",
    ),
}


def _hint_catalogue() -> str:
    """One-line enumeration of every valid hint and its requirement."""
    return "; ".join(
        f"{name} — {summary}" for name, (_, summary) in HINT_CAPABILITIES.items()
    )


def validate_fs_hints(fs_config: "FSConfig", fs) -> None:
    """Validate ``fs_config``'s ROMIO-style hints against ``fs``.

    A hint for a call the file system doesn't have fails here, before
    any process is spawned — not mid-run.  Error messages enumerate the
    valid hint names and which FS capability each requires.
    """
    for hint in fs_config.HINT_FIELDS:
        value = getattr(fs_config, hint)
        if value is not None and value < 1:
            raise ConfigurationError(
                f"FS hint {hint} must be >= 1, got {value}. "
                f"Valid hints: {_hint_catalogue()}"
            )
        capability = HINT_CAPABILITIES[hint][0]
        if value is not None and capability is not None and not getattr(fs, capability):
            raise ConfigurationError(
                f"hint {hint} set on {fs_config.kind!r}, which lacks the "
                f"{capability} capability the hint needs. "
                f"Valid hints: {_hint_catalogue()}"
            )


@dataclass
class Substrate:
    """The shared execution fabric a pipeline runs on.

    Standalone runs build a private one (:meth:`build` — the classic
    construction, bit-identically); a
    :class:`~repro.scenario.ScenarioExecutor` builds ONE and hands it to
    every tenant's :class:`PipelineExecutor`, so N pipelines contend for
    the same kernel clock, mesh links, and stripe-directory disks.

    Attributes
    ----------
    kernel / machine / fs:
        The simulation kernel, the machine (compute + I/O nodes with
        their network), and the parallel file system built over it.
    rank_base:
        First machine node index this pipeline's rank 0 maps to
        (tenants occupy contiguous compute-node blocks).
    tenant:
        Tenant name ("" for standalone runs).  Non-empty names prefix
        process names, namespace the cube files, and label instruments.
    file_prefix:
        Cube-file prefix inside the shared FS namespace.
    metrics:
        Shared :class:`~repro.obs.MetricsRegistry` (scenario-owned), or
        None.  Standalone executors build their own per
        ``cfg.metrics_interval`` instead.
    """

    kernel: Kernel
    machine: Any
    fs: Any
    rank_base: int = 0
    tenant: str = ""
    file_prefix: str = "cpi"
    metrics: Optional[MetricsRegistry] = None

    @classmethod
    def build(
        cls,
        preset: MachinePreset,
        fs_config: FSConfig,
        n_compute: int,
    ) -> "Substrate":
        """Construct a private substrate — the classic executor path.

        The construction order (kernel, machine, disk, FS, hint
        validation, hint install) is exactly the pre-refactor
        ``PipelineExecutor.__init__`` sequence: every pre-existing
        result hash depends on it.
        """
        kernel = Kernel()
        machine = preset.build(
            kernel,
            n_compute=n_compute,
            n_io=fs_config.stripe_factor,
        )
        disk = DiskSpec(
            bandwidth=fs_config.disk_bw or preset.disk_bw,
            overhead=(
                fs_config.disk_overhead
                if fs_config.disk_overhead is not None
                else preset.disk_overhead
            ),
        )
        fs_cls = {"pfs": PFS, "piofs": PIOFS}.get(fs_config.kind)
        if fs_cls is None:
            raise ConfigurationError(f"unknown file system kind {fs_config.kind!r}")
        fs = fs_cls(
            machine,
            stripe_unit=fs_config.stripe_unit,
            stripe_factor=fs_config.stripe_factor,
            disk=disk,
            name=fs_config.label(),
            replication=fs_config.replication,
        )
        # ROMIO-style hints ride on the FS instance: readers and the
        # list-I/O request path consult fs.hints at run time.
        validate_fs_hints(fs_config, fs)
        fs.hints.update(fs_config.hint_dict())
        return cls(kernel=kernel, machine=machine, fs=fs)


class PipelineExecutor:
    """Build and run one pipeline configuration.

    Standalone (``substrate=None``): builds a private
    :class:`Substrate` exactly as the pre-refactor executor did and
    ``run()`` drives the whole simulation — bit-identical results.

    Hosted (``substrate=`` a scenario-owned one): the executor *receives*
    its kernel/machine/FS, binds its ranks at ``substrate.rank_base``,
    namespaces its cube files with ``substrate.file_prefix``, and leaves
    driving the kernel — and harvesting shared-FS statistics — to the
    :class:`~repro.scenario.ScenarioExecutor` via the
    :meth:`setup_processes` / :meth:`collect` halves of :meth:`run`.
    """

    def __init__(
        self,
        spec: PipelineSpec,
        params: STAPParams,
        preset: MachinePreset,
        fs_config: FSConfig,
        cfg: Optional[ExecutionConfig] = None,
        scenario: Optional[Scenario] = None,
        seed: Optional[int] = None,
        substrate: Optional[Substrate] = None,
    ) -> None:
        self.spec = spec
        self.params = params
        self.preset = preset
        self.fs_config = fs_config
        self.cfg = cfg or ExecutionConfig()
        if self.cfg.compute and scenario is None:
            if seed is None:
                raise ConfigurationError(
                    "compute mode needs a scenario (or a seed) for cube content"
                )
            scenario = Scenario.standard(params, seed=seed)
        self.seed = seed
        self.scenario = scenario

        self._owns_substrate = substrate is None
        if substrate is None:
            substrate = Substrate.build(
                preset, fs_config, n_compute=spec.total_nodes
            )
        self.substrate = substrate
        self.kernel = substrate.kernel
        self.machine = substrate.machine
        self.fs = substrate.fs
        self.tenant = substrate.tenant
        # Resolve the spec's I/O strategy (None for hand-built specs with
        # non-registry names) and reject FS/config mismatches before any
        # process is spawned — async-on-PIOFS fails here, not mid-run.
        self.strategy = strategy_for_spec(spec.name)
        if self.strategy is not None:
            self.strategy.validate(
                self.fs.supports_async,
                self.cfg,
                supports_list_io=self.fs.supports_list_io,
            )
        source = (
            CubeSource(params, scenario) if (self.cfg.compute and scenario) else None
        )
        self.fileset = CubeFileSet(
            self.fs, params, source=source, prefix=substrate.file_prefix
        )
        self.plan = PipelinePlan(spec, params)
        validate_plan(self.plan)
        if self._owns_substrate:
            self.comm = Communicator.world(self.machine)
        else:
            self.comm = Communicator(
                self.machine,
                [substrate.rank_base + r for r in range(spec.total_nodes)],
                name=substrate.tenant or "comm",
            )
        self.trace = TraceCollector()
        self.results: Dict[str, Any] = {}
        # Per-CPI arrival gate (None = classic all-data-ready behaviour).
        self._arrival_times = (
            self.cfg.arrival.times(self.cfg.n_cpis)
            if self.cfg.arrival is not None
            else None
        )
        # Observability (repro.obs): registry + kernel-hook sampler over
        # the standard gauge set.  Pure observers — event order and every
        # simulated quantity are identical whether this is on or off.
        # Hosted executors share the scenario's registry (tenant-labeled
        # instruments, substrate gauges registered once by the scenario);
        # the scenario also owns the one sampler.
        self.metrics: Optional[MetricsRegistry] = None
        self._sampler: Optional[Sampler] = None
        if self._owns_substrate:
            if self.cfg.metrics_interval is not None:
                self.metrics = MetricsRegistry()
                self._sampler = Sampler(
                    self.kernel, self.metrics, self.cfg.metrics_interval
                )
                instrument_pipeline(self.metrics, self)
        elif substrate.metrics is not None:
            self.metrics = substrate.metrics
            instrument_pipeline(
                self.metrics, self,
                tenant=substrate.tenant,
                include_substrate=False,
            )

    def setup_processes(self) -> None:
        """Initialise the file set and spawn one process per task node.

        First half of :meth:`run`; the scenario executor calls it for
        every tenant before driving the shared kernel once.
        """
        self.fileset.initialize()
        stem = f"{self.tenant}." if self.tenant else ""
        for name, inst in self.plan.instances.items():
            for local, rank in enumerate(inst.ranks):
                ctx = TaskContext(
                    kernel=self.kernel,
                    rc=self.comm.view(rank),
                    task=inst,
                    local=local,
                    plan=self.plan,
                    cfg=self.cfg,
                    trace=self.trace,
                    fileset=self.fileset,
                    node_spec=self.machine.node(self.comm.node_of(rank)).spec,
                    results=self.results,
                    strategy=self.strategy,
                    metrics=self.metrics,
                    tenant=self.tenant,
                    arrival_times=self._arrival_times,
                )
                self.kernel.process(
                    body_for(inst.spec.kind, ctx), name=f"{stem}{name}[{local}]"
                )
        if self._sampler is not None:
            self._sampler.attach()

    def run(self) -> PipelineResult:
        """Execute the configured number of CPIs and measure."""
        self.setup_processes()
        self.kernel.run()
        if self._sampler is not None:
            self._sampler.finalize(self.kernel.now)
        return self.collect()

    def collect(self) -> PipelineResult:
        """Measure and assemble the result after the kernel has run.

        Second half of :meth:`run`.  Hosted executors leave the
        shared-FS statistics and the metrics artifact to the scenario
        (a tenant's result would otherwise claim the whole machine's
        disk traffic as its own).
        """
        meas = measure(
            self.trace,
            self.spec,
            n_cpis=self.cfg.n_cpis,
            warmup=self.cfg.warmup,
            sink_task=self.plan.sink_task,
            first_task=self.plan.first_task,
        )
        detections = sorted(self.results.get("detections", []))
        result = PipelineResult(
            spec=self.spec,
            cfg=self.cfg,
            fs_label=self.fs_config.label(),
            machine_name=self.machine.name,
            trace=self.trace,
            measurement=meas,
            detections=detections,
            elapsed_sim_time=self.kernel.now,
        )
        if self._owns_substrate:
            result.disk_stats = {
                "busy_time_per_server": [s.busy_time for s in self.fs.servers],
                "requests_per_server": [s.requests_served for s in self.fs.servers],
                "bytes_served": self.fs.total_bytes_served(),
            }
        if self._owns_substrate and self.fs.fault_tolerant:
            # Only surfaced on fault-tolerant runs so that pre-existing
            # no-fault result hashes stay bit-identical.
            result.disk_stats["requests_failed_per_server"] = [
                s.requests_failed for s in self.fs.servers
            ]
            result.disk_stats["bytes_shipped_per_server"] = [
                s.bytes_shipped for s in self.fs.servers
            ]
            result.disk_stats["outages_per_server"] = [
                s.outages for s in self.fs.servers
            ]
            result.disk_stats["duplicate_ships_per_server"] = [
                s.duplicate_ships for s in self.fs.servers
            ]
        if self.cfg.read_deadline is not None:
            result.dropped_cpis = sorted(self.results.get("dropped_cpis", []))
        result.rank_traffic = {
            pair: tuple(counts) for pair, counts in self.comm.traffic.items()
        }
        result.rank_task = {
            rank: name
            for name, inst in self.plan.instances.items()
            for rank in inst.ranks
        }
        if self.metrics is not None:
            labels = {"tenant": self.tenant} if self.tenant else {}
            hist = self.metrics.histogram(
                "cpi_latency_seconds",
                buckets=DEFAULT_BUCKETS,
                help="per-CPI pipeline latency over the steady-state window",
                **labels,
            )
            for v in meas.latencies:
                hist.observe(v)
            if self._sampler is not None:
                # Hosted executors share the scenario's registry; the
                # scenario emits the one combined artifact instead.
                result.metrics = self.metrics.to_dict(
                    interval=self.cfg.metrics_interval,
                    t_end=self.kernel.now,
                    samples=self._sampler.samples,
                )
        return result
