"""What a pipeline run produced, and its lossless JSON form.

Kept apart from :mod:`repro.core.executor` so that reading a cached
result rehydrates it without importing the simulation layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.config import ExecutionConfig
from repro.core.metrics import DroppedCpi, PipelineMeasurement
from repro.core.pipeline import PipelineSpec
from repro.core.serialize import compat_get
from repro.stap.cfar import Detection
from repro.trace.collector import TraceCollector

__all__ = ["PipelineResult"]


@dataclass
class PipelineResult:
    """Everything a pipeline run produced."""

    spec: PipelineSpec
    cfg: ExecutionConfig
    fs_label: str
    machine_name: str
    trace: TraceCollector
    measurement: PipelineMeasurement
    detections: List[Detection]
    elapsed_sim_time: float

    @property
    def throughput(self) -> float:
        return self.measurement.throughput

    @property
    def latency(self) -> float:
        return self.measurement.latency

    #: Filled in by the executor after the run.
    disk_stats: "Optional[dict]" = None
    #: (src_rank, dst_rank) -> [messages, bytes]; rank -> task name.
    rank_traffic: "Optional[dict]" = None
    rank_task: "Optional[dict]" = None
    #: CPIs skipped at the read deadline; None unless a deadline was set.
    dropped_cpis: "Optional[List[DroppedCpi]]" = None
    #: JSON time-series metrics artifact (see :mod:`repro.obs`); None
    #: unless ``cfg.metrics_interval`` was set.
    metrics: "Optional[dict]" = None
    #: ``"simulated"`` for real runs; ``"predicted"`` when the result was
    #: synthesised from the analytic model by surrogate screening
    #: (:mod:`repro.bench.surrogate`).
    source: str = "simulated"
    #: Relative error bound on predicted throughput/latency; None for
    #: simulated results.
    prediction_bound: "Optional[float]" = None

    def disk_utilization(self) -> float:
        """Mean busy fraction of the stripe directories' disks."""
        if not self.disk_stats or self.elapsed_sim_time <= 0:
            return 0.0
        busy = self.disk_stats["busy_time_per_server"]
        return sum(busy) / (len(busy) * self.elapsed_sim_time)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-able form of the whole run.

        Tuple-keyed maps (``rank_traffic``) are encoded with
        ``"src->dst"`` string keys; integer-keyed maps (``rank_task``)
        with stringified keys, both reversed by :meth:`from_dict`.
        ``dropped_cpis`` appears only when a read deadline was
        configured, and ``metrics`` only when observability was on,
        keeping pre-existing result hashes unchanged.
        """
        d = {
            "spec": self.spec.to_dict(),
            "cfg": self.cfg.to_dict(),
            "fs_label": self.fs_label,
            "machine_name": self.machine_name,
            "trace": self.trace.to_dict(),
            "measurement": self.measurement.to_dict(),
            "detections": [d.to_dict() for d in self.detections],
            "elapsed_sim_time": self.elapsed_sim_time,
            "disk_stats": self.disk_stats,
            "rank_traffic": (
                None
                if self.rank_traffic is None
                else {
                    f"{src}->{dst}": list(counts)
                    for (src, dst), counts in self.rank_traffic.items()
                }
            ),
            "rank_task": (
                None
                if self.rank_task is None
                else {str(rank): task for rank, task in self.rank_task.items()}
            ),
        }
        if self.dropped_cpis is not None:
            d["dropped_cpis"] = [x.to_dict() for x in self.dropped_cpis]
        if self.metrics is not None:
            d["metrics"] = self.metrics
        # Emitted only for predicted results, keeping simulated-result
        # dicts (and hence all pre-existing result hashes) unchanged.
        if self.source != "simulated":
            d["source"] = self.source
        if self.prediction_bound is not None:
            d["prediction_bound"] = self.prediction_bound
        return d

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "PipelineResult":
        """Inverse of :meth:`to_dict`.

        Reads accept legacy camelCase key spellings (``fsLabel``,
        ``rankTraffic``, ...) via :func:`~repro.core.serialize
        .compat_get`; writes are always snake_case.
        """
        result = PipelineResult(
            spec=PipelineSpec.from_dict(d["spec"]),
            cfg=ExecutionConfig.from_dict(d["cfg"]),
            fs_label=compat_get(d, "fs_label"),
            machine_name=compat_get(d, "machine_name"),
            trace=TraceCollector.from_dict(d["trace"]),
            measurement=PipelineMeasurement.from_dict(d["measurement"]),
            detections=[Detection.from_dict(x) for x in d["detections"]],
            elapsed_sim_time=compat_get(d, "elapsed_sim_time"),
        )
        result.disk_stats = compat_get(d, "disk_stats")
        rank_traffic = compat_get(d, "rank_traffic")
        if rank_traffic is not None:
            result.rank_traffic = {
                tuple(int(r) for r in key.split("->")): tuple(counts)
                for key, counts in rank_traffic.items()
            }
        rank_task = compat_get(d, "rank_task")
        if rank_task is not None:
            result.rank_task = {
                int(rank): task for rank, task in rank_task.items()
            }
        dropped = compat_get(d, "dropped_cpis", None)
        if dropped is not None:
            result.dropped_cpis = [DroppedCpi.from_dict(x) for x in dropped]
        result.metrics = d.get("metrics")
        result.source = d.get("source", "simulated")
        result.prediction_bound = d.get("prediction_bound")
        return result

    def task_traffic(self) -> "dict":
        """Aggregate network traffic between tasks.

        Returns ``{(src_task, dst_task): (messages, bytes)}`` summed over
        all rank pairs and CPIs — the measurable form of the paper's
        per-task communication terms :math:`C_i` (flow-control
        acknowledgements included; they ride the same network).
        """
        out: dict = {}
        if not self.rank_traffic or not self.rank_task:
            return out
        for (src, dst), (msgs, nbytes) in self.rank_traffic.items():
            key = (self.rank_task[src], self.rank_task[dst])
            acc = out.setdefault(key, [0, 0])
            acc[0] += msgs
            acc[1] += nbytes
        return {k: tuple(v) for k, v in out.items()}
