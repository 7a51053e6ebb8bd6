"""Declarative multi-tenant scenario specs.

A :class:`ScenarioSpec` is to a shared machine what an
:class:`~repro.bench.engine.ExperimentSpec` is to a dedicated one: a
pure value — hashable, serializable, sufficient to reproduce the run
bit-for-bit — describing N tenant pipelines contending for ONE parallel
file system and mesh.  Each :class:`TenantSpec` entry carries the
tenant's node assignment, pipeline/strategy, execution config (including
its CPI arrival process and read deadline), and an optional concurrent
writer load.

Scenario specs flow through the same plumbing as experiment specs: the
:class:`~repro.bench.store.ResultStore` (content-addressed on
:meth:`ScenarioSpec.spec_hash`), the
:class:`~repro.bench.engine.SweepRunner`, the service tier (the spec
names its own payload runner via :attr:`ScenarioSpec.RUNNER`), the TCP
front end (the ``"kind": "scenario"`` marker in :meth:`to_dict` routes
rehydration), and :func:`repro.run`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.bench.engine import MACHINES, PIPELINES, WriterLoad
from repro.core.config import ExecutionConfig, FSConfig
from repro.core.pipeline import NodeAssignment, PipelineSpec
from repro.core.result import PipelineResult
from repro.core.serialize import compat_get
from repro.errors import ConfigurationError
from repro.stap.params import STAPParams

__all__ = [
    "TenantSpec",
    "ScenarioSpec",
    "ScenarioResult",
    "SCENARIO_SCHEMA",
    "RUN_SCENARIO_RUNNER",
]

#: Bump when the canonical scenario serialization changes shape.
SCENARIO_SCHEMA = 1

#: Import string of the service-tier payload runner for scenario specs
#: (see :func:`repro.service.tasks.run_scenario_payload`).
RUN_SCENARIO_RUNNER = "repro.service.tasks:run_scenario_payload"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant pipeline inside a scenario.

    The tenant brings its own node assignment, pipeline (a
    :data:`~repro.bench.engine.PIPELINES` registry name), and execution
    config — n_cpis, arrival process, read deadline, threading — while
    the scenario supplies the shared machine, file system, and STAP
    parameters.
    """

    assignment: NodeAssignment
    pipeline: str = "embedded-io"
    cfg: ExecutionConfig = field(default_factory=ExecutionConfig)
    name: str = ""
    writer: Optional[WriterLoad] = None

    def __post_init__(self) -> None:
        if self.pipeline not in PIPELINES:
            raise ConfigurationError(
                f"unknown pipeline {self.pipeline!r}; "
                f"choose from {sorted(PIPELINES)}"
            )

    def build_pipeline(self) -> PipelineSpec:
        """Instantiate the named pipeline on this tenant's assignment."""
        return PIPELINES.resolve(self.pipeline)(self.assignment)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-able form (optional fields only when set)."""
        d: Dict[str, Any] = {
            "pipeline": self.pipeline,
            "assignment": self.assignment.to_dict(),
            "cfg": self.cfg.to_dict(),
        }
        if self.name:
            d["name"] = self.name
        if self.writer is not None:
            d["writer"] = self.writer.to_dict()
        return d

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "TenantSpec":
        """Inverse of :meth:`to_dict`."""
        writer = compat_get(d, "writer", None)
        return TenantSpec(
            assignment=NodeAssignment.from_dict(d["assignment"]),
            pipeline=d["pipeline"],
            cfg=ExecutionConfig.from_dict(d["cfg"]),
            name=compat_get(d, "name", ""),
            writer=WriterLoad.from_dict(writer) if writer else None,
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """N tenant pipelines on one shared machine + parallel file system."""

    tenants: Tuple[TenantSpec, ...]
    machine: str = "paragon"
    fs: FSConfig = field(default_factory=FSConfig)
    params: STAPParams = field(default_factory=STAPParams)
    seed: int = 0
    #: Scenario-level gauge-sampling interval (:mod:`repro.obs`); the
    #: one shared registry carries tenant-labeled instruments.
    metrics_interval: Optional[float] = None

    #: Service-tier payload runner (consulted by the scheduler via
    #: ``getattr(spec, "RUNNER", ...)``).
    RUNNER = RUN_SCENARIO_RUNNER

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not self.tenants:
            raise ConfigurationError("a scenario needs at least one tenant")
        if self.machine not in MACHINES:
            raise ConfigurationError(
                f"unknown machine {self.machine!r}; choose from {sorted(MACHINES)}"
            )
        if self.metrics_interval is not None and self.metrics_interval <= 0:
            raise ConfigurationError("metrics_interval must be > 0 (or None)")
        names = self.tenant_names()
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"tenant names must be unique, got {names}"
            )

    # -- sugar ------------------------------------------------------------
    def tenant_names(self) -> Tuple[str, ...]:
        """Resolved tenant names (``name`` or positional ``t<i>``)."""
        return tuple(t.name or f"t{i}" for i, t in enumerate(self.tenants))

    def total_nodes(self) -> int:
        """Compute nodes the scenario occupies (sum over tenants)."""
        return sum(t.assignment.total_without_io for t in self.tenants)

    def label(self) -> str:
        """Human-readable one-liner for listings."""
        mix = "+".join(t.pipeline for t in self.tenants)
        return (
            f"scenario[{len(self.tenants)}] {mix} | {self.machine} | "
            f"{self.fs.label()} | {self.total_nodes()} nodes"
        )

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-able form.

        The ``"kind": "scenario"`` marker is how generic spec consumers
        (the TCP server, archived payloads) tell a scenario dict from an
        :class:`~repro.bench.engine.ExperimentSpec` dict.
        """
        d: Dict[str, Any] = {
            "kind": "scenario",
            "tenants": [t.to_dict() for t in self.tenants],
            "machine": self.machine,
            "fs": self.fs.to_dict(),
            "params": self.params.to_dict(),
            "seed": self.seed,
        }
        if self.metrics_interval is not None:
            d["metrics_interval"] = self.metrics_interval
        return d

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict` (the ``kind`` marker is ignored)."""
        return ScenarioSpec(
            tenants=tuple(TenantSpec.from_dict(t) for t in d["tenants"]),
            machine=d["machine"],
            fs=FSConfig.from_dict(d["fs"]),
            params=STAPParams.from_dict(d["params"]),
            seed=compat_get(d, "seed", 0),
            metrics_interval=compat_get(d, "metrics_interval", None),
        )

    def canonical_json(self) -> str:
        """Canonical serialized form the hash is computed over."""
        return json.dumps(
            {"schema": SCENARIO_SCHEMA, **self.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )

    def spec_hash(self) -> str:
        """Content address: SHA-256 of the canonical JSON form.

        The ``kind`` marker inside :meth:`to_dict` keeps scenario hashes
        disjoint from experiment hashes by construction, so both share
        one :class:`~repro.bench.store.ResultStore` without collisions.
        """
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def short_hash(self) -> str:
        """First 12 hex digits of :meth:`spec_hash`, for display."""
        return self.spec_hash()[:12]

    # -- service-tier hooks ------------------------------------------------
    @staticmethod
    def result_from_dict(d: Dict[str, Any]) -> "ScenarioResult":
        """Rehydrate this spec kind's result payload (SweepRunner hook)."""
        return ScenarioResult.from_dict(d)


@dataclass
class ScenarioResult:
    """Everything a scenario run produced: one result per tenant plus
    the shared-substrate statistics no single tenant owns."""

    spec: ScenarioSpec
    #: Tenant name -> that pipeline's result (no per-tenant disk_stats
    #: or metrics — the substrate is shared; see below).
    tenants: Dict[str, PipelineResult]
    elapsed_sim_time: float
    #: Shared stripe-server statistics (same shape as a standalone
    #: result's ``disk_stats``): the whole machine's disk traffic.
    disk_stats: Optional[dict] = None
    #: Tenant name -> bytes that tenant requested against its own files
    #: — the per-tenant attribution of the shared disk traffic.
    tenant_bytes: Optional[Dict[str, int]] = None
    #: Scenario-level metrics artifact (tenant-labeled instruments in
    #: one registry); None unless ``spec.metrics_interval`` was set.
    metrics: Optional[dict] = None
    source: str = "simulated"

    # -- aggregate queries -------------------------------------------------
    def throughputs(self) -> Dict[str, float]:
        """Tenant name -> steady-state throughput (CPIs/s)."""
        return {name: r.throughput for name, r in self.tenants.items()}

    def latencies(self) -> Dict[str, float]:
        """Tenant name -> mean steady-state latency (s)."""
        return {name: r.latency for name, r in self.tenants.items()}

    def drops(self) -> Dict[str, int]:
        """Tenant name -> CPIs dropped at its read deadline (0 if none
        was configured)."""
        return {
            name: len(r.dropped_cpis or ())
            for name, r in self.tenants.items()
        }

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-able form (tenant order preserved)."""
        d: Dict[str, Any] = {
            "kind": "scenario",
            "spec": self.spec.to_dict(),
            "tenants": {
                name: r.to_dict() for name, r in self.tenants.items()
            },
            "tenant_order": list(self.tenants),
            "elapsed_sim_time": self.elapsed_sim_time,
            "disk_stats": self.disk_stats,
        }
        if self.tenant_bytes is not None:
            d["tenant_bytes"] = dict(self.tenant_bytes)
        if self.metrics is not None:
            d["metrics"] = self.metrics
        if self.source != "simulated":
            d["source"] = self.source
        return d

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "ScenarioResult":
        """Inverse of :meth:`to_dict`."""
        order = compat_get(d, "tenant_order", None) or list(d["tenants"])
        result = ScenarioResult(
            spec=ScenarioSpec.from_dict(d["spec"]),
            tenants={
                name: PipelineResult.from_dict(d["tenants"][name])
                for name in order
            },
            elapsed_sim_time=compat_get(d, "elapsed_sim_time"),
            disk_stats=compat_get(d, "disk_stats", None),
        )
        result.tenant_bytes = compat_get(d, "tenant_bytes", None)
        result.metrics = d.get("metrics")
        result.source = d.get("source", "simulated")
        return result
