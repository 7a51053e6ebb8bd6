"""Run descriptors: how to execute a pipeline, and which file system.

Both are frozen dataclasses with a lossless ``to_dict`` / ``from_dict``.
They import no simulation layer, so building, hashing and cache-probing
a spec stays cheap; :mod:`repro.core.context` and
:mod:`repro.core.executor` re-export them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.arrivals import ArrivalSpec

__all__ = ["ExecutionConfig", "FSConfig"]


@dataclass(frozen=True)
class ExecutionConfig:
    """How to run a pipeline.

    Attributes
    ----------
    n_cpis:
        CPIs pushed through the pipeline.
    warmup:
        Leading CPIs excluded from steady-state metrics.
    window:
        Credit window W: a producer may be at most W CPIs ahead of each
        of its consumers (bounds buffering, like the real system's
        finite message buffers).
    compute:
        True = real numerics flow (compute mode); False = phantom
        payloads and cost-model times only (timing mode).
    threaded:
        False = the paper's single-threaded nodes (phases in sequence);
        True = the IPPS'99 companion design: receive/compute/send run as
        concurrent threads per node (SMP nodes), overlapping phases of
        successive CPIs.
    write_reports:
        When True, the sink task writes each CPI's detection reports
        back into the parallel file system (one file per sink node) —
        the output-side I/O the authors' journal version studies.  The
        writes queue on the same stripe-directory disks as the reads.
    read_deadline:
        Graceful-degradation deadline (simulated seconds) for the
        per-CPI slab read.  When set, a reading task that cannot obtain
        its CPI slab within the deadline *skips* the CPI — recording a
        :class:`~repro.core.metrics.DroppedCpi` instead of stalling the
        whole pipeline behind a failed stripe server.  ``None`` (the
        default) keeps the classic stall-forever behaviour.
    metrics_interval:
        Simulated-time gauge-sampling interval for the observability
        layer (:mod:`repro.obs`).  When set, the executor builds a
        :class:`~repro.obs.MetricsRegistry`, samples it every this many
        simulated seconds, and attaches the time-series artifact to
        ``PipelineResult.metrics``.  Sampling rides the kernel's
        clock-advance hook, so event order — and every simulated
        quantity — is bit-identical with metrics on or off.  ``None``
        (the default) disables metrics entirely.
    arrival:
        CPI arrival process (:class:`~repro.core.arrivals.ArrivalSpec`).
        When set, the reading task gates each CPI's read on its arrival
        time — modelling a radar front end that delivers CPIs on a
        cadence instead of a pre-populated file system.  ``None`` (the
        default) keeps the classic all-data-ready behaviour and is
        bit-identical to it.
    """

    n_cpis: int = 8
    warmup: int = 2
    window: int = 2
    compute: bool = False
    threaded: bool = False
    write_reports: bool = False
    read_deadline: Optional[float] = None
    metrics_interval: Optional[float] = None
    arrival: Optional[ArrivalSpec] = None

    def __post_init__(self) -> None:
        if self.n_cpis < 1:
            raise ValueError("n_cpis must be >= 1")
        if not (0 <= self.warmup < self.n_cpis):
            raise ValueError("warmup must be in [0, n_cpis)")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.read_deadline is not None and self.read_deadline <= 0:
            raise ValueError("read_deadline must be > 0 (or None)")
        if self.metrics_interval is not None and self.metrics_interval <= 0:
            raise ValueError("metrics_interval must be > 0 (or None)")
        if self.arrival is not None and not isinstance(self.arrival, ArrivalSpec):
            raise ValueError("arrival must be an ArrivalSpec (or None)")

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-able form.

        ``read_deadline``, ``metrics_interval``, and ``arrival`` are
        emitted only when set so configs predating those features keep
        their exact hashes.
        """
        d: Dict[str, Any] = {
            "n_cpis": self.n_cpis,
            "warmup": self.warmup,
            "window": self.window,
            "compute": self.compute,
            "threaded": self.threaded,
            "write_reports": self.write_reports,
        }
        if self.read_deadline is not None:
            d["read_deadline"] = self.read_deadline
        if self.metrics_interval is not None:
            d["metrics_interval"] = self.metrics_interval
        if self.arrival is not None:
            d["arrival"] = self.arrival.to_dict()
        return d

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "ExecutionConfig":
        """Inverse of :meth:`to_dict`."""
        if d.get("arrival") is not None and not isinstance(d["arrival"], ArrivalSpec):
            d = dict(d)
            d["arrival"] = ArrivalSpec.from_dict(d["arrival"])
        return ExecutionConfig(**d)


@dataclass(frozen=True)
class FSConfig:
    """Which parallel file system to build, and its geometry.

    ``replication > 1`` mirrors each stripe unit over that many
    directories (chained declustering) and switches clients to the
    fault-tolerant retry/failover path — see ``docs/fault_model.md``.

    The three optional ROMIO-style hints tune the noncontiguous-access
    strategies (``docs/io_strategies.md``): ``sieve_buffer_size``
    replaces the data-sieving readers' whole-stripe-unit widening with an
    arbitrary alignment granularity, ``cb_nodes`` caps how many of the
    reading task's nodes act as phase-one aggregators in collective
    two-phase I/O, and ``list_io_max_runs`` caps the contiguous pieces
    one batched list-I/O request may carry.  Unset hints are omitted
    from serialization, so hint-free configs keep their exact
    pre-existing hashes.
    """

    kind: str = "pfs"            # "pfs" (async) or "piofs" (sync-only)
    stripe_factor: int = 64
    stripe_unit: int = 64 * 1024
    disk_bw: Optional[float] = None        # default: preset's disk
    disk_overhead: Optional[float] = None
    name: str = ""
    replication: int = 1
    sieve_buffer_size: Optional[int] = None
    cb_nodes: Optional[int] = None
    list_io_max_runs: Optional[int] = None

    #: The ROMIO-style hint field names, in serialization order.
    HINT_FIELDS = ("sieve_buffer_size", "cb_nodes", "list_io_max_runs")

    def hint_dict(self) -> Dict[str, int]:
        """The hints that are actually set, as a plain dict."""
        return {
            k: getattr(self, k)
            for k in self.HINT_FIELDS
            if getattr(self, k) is not None
        }

    def label(self) -> str:
        """Display label, e.g. ``"PFS sf=64"`` or ``"PFS sf=4 rep=2"``."""
        if self.name:
            return self.name
        base = f"{self.kind.upper()} sf={self.stripe_factor}"
        if self.replication > 1:
            base += f" rep={self.replication}"
        return base

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-able form.

        ``replication`` is emitted only when mirroring is on, and each
        ROMIO-style hint only when set, so unreplicated hint-free
        configs keep their exact pre-existing hashes.
        """
        d = {
            "kind": self.kind,
            "stripe_factor": self.stripe_factor,
            "stripe_unit": self.stripe_unit,
            "disk_bw": self.disk_bw,
            "disk_overhead": self.disk_overhead,
            "name": self.name,
        }
        if self.replication != 1:
            d["replication"] = self.replication
        d.update(self.hint_dict())
        return d

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "FSConfig":
        """Inverse of :meth:`to_dict`."""
        return FSConfig(**d)
