"""Per-node runtime context for task bodies.

A :class:`TaskContext` is everything one task node's process generator
needs: its rank handle, the plan, the file set, the trace collector, the
execution config, and helpers for timed phases, cost-model compute, and
credit-window flow control.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.config import ExecutionConfig
from repro.core.plan import PipelinePlan
from repro.core.task import TaskInstance
from repro.io.fileset import CubeFileSet
from repro.mpi.communicator import RankComm
from repro.mpi.datatypes import Phantom
from repro.sim.kernel import Kernel
from repro.stap.costs import STAPCosts
from repro.stap.params import STAPParams
from repro.trace.collector import TraceCollector
from repro.trace.record import Phase

__all__ = ["ExecutionConfig", "TaskContext", "data_tag", "ACK_NBYTES"]

#: Bytes charged for a flow-control acknowledgement message.
ACK_NBYTES = 64


def data_tag(cpi: int) -> int:
    """Message tag for CPI ``cpi`` (offset so the bootstrap CPI -1 is
    representable as a valid non-negative tag)."""
    return cpi + 1


class TaskContext:
    """Everything one task node needs at run time."""

    def __init__(
        self,
        kernel: Kernel,
        rc: RankComm,
        task: TaskInstance,
        local: int,
        plan: PipelinePlan,
        cfg: ExecutionConfig,
        trace: TraceCollector,
        fileset: Optional[CubeFileSet],
        node_spec,
        results: Dict[str, Any],
        strategy=None,
        metrics=None,
        tenant: str = "",
        arrival_times: Optional[Sequence[float]] = None,
    ) -> None:
        self.kernel = kernel
        self.rc = rc
        self.task = task
        self.local = local
        self.plan = plan
        self.cfg = cfg
        self.trace = trace
        self.fileset = fileset
        self.node_spec = node_spec
        self.results = results
        #: The run's :class:`~repro.strategies.IOStrategy` (None for
        #: hand-built specs outside the registry: legacy reader behaviour).
        self.strategy = strategy
        #: The run's :class:`~repro.obs.MetricsRegistry`, or None when
        #: observability is off (``cfg.metrics_interval`` unset).
        self.metrics = metrics
        #: Tenant name when this context belongs to a pipeline hosted by
        #: a :class:`~repro.scenario.ScenarioExecutor`; "" standalone.
        #: Non-empty tenants add a ``tenant`` label to every instrument
        #: registered from task code (standalone labels are unchanged).
        self.tenant = tenant
        #: Absolute arrival time of each CPI (``cfg.arrival``-derived),
        #: or None when the classic all-data-ready behaviour applies.
        self.arrival_times = tuple(arrival_times) if arrival_times is not None else None
        self.params: STAPParams = plan.params
        self.costs = STAPCosts(plan.params)
        # Per-consumer-set credit bookkeeping: edge key -> consumer ranks.
        self._credit_consumers: Dict[str, Tuple[int, ...]] = {}

    # -- sugar ------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.kernel.now

    @property
    def name(self) -> str:
        return self.task.name

    def tenant_labels(self, **labels) -> Dict[str, Any]:
        """Instrument labels with a ``tenant`` key added when this
        context runs inside a scenario (standalone: unchanged)."""
        if self.tenant:
            labels["tenant"] = self.tenant
        return labels

    def record(self, cpi: int, phase: Phase, t_start: float, t_end: Optional[float] = None) -> None:
        """Add a trace record ending now (or at ``t_end``)."""
        end = self.now if t_end is None else t_end
        self.trace.add(self.name, self.local, cpi, phase, t_start, end)
        if self.metrics is not None:
            # Cumulative phase seconds per (task, phase): the compute-
            # utilization side of the bottleneck-migration picture.  A
            # plain counter increment — no kernel interaction.
            self.metrics.counter(
                "task_phase_seconds_total",
                help="cumulative simulated seconds spent per task phase",
                **self.tenant_labels(task=self.name, phase=phase.value),
            ).inc(end - t_start)

    # -- arrival gating ---------------------------------------------------
    def await_arrival(self, cpi: int):
        """Process generator: wait until CPI ``cpi`` has arrived.

        No-op (zero kernel events — bit-identical control flow) when no
        arrival process is configured or the CPI already arrived.  A
        real wait is recorded as an ARRIVAL phase: idle time, excluded
        from service metrics like CREDIT.
        """
        times = self.arrival_times
        if times is None or cpi >= len(times):
            return
        t = times[cpi]
        t0 = self.now
        if t <= t0:
            return
        yield self.kernel.timeout(t - t0)
        self.record(cpi, Phase.ARRIVAL, t0)

    def ranks(self, task_name: str) -> Tuple[int, ...]:
        return self.plan.ranks(task_name)

    # -- compute phase -------------------------------------------------------
    def compute_for(self, seconds: float):
        """Process generator: occupy the node for ``seconds`` of compute."""
        if seconds > 0:
            yield self.kernel.timeout(seconds)

    def model_time(self, full_cpi_flops: float, share: float, bytes_touched: float = 0.0) -> float:
        """Cost-model seconds for this node's ``share`` of a task's work."""
        return self.node_spec.compute_time(full_cpi_flops * share, bytes_touched * share)

    # -- flow control ----------------------------------------------------------
    def register_consumers(self, edge: str, consumer_ranks) -> None:
        """Declare the consumer set of an outgoing edge (once, at start)."""
        self._credit_consumers[edge] = tuple(sorted(set(consumer_ranks)))

    def await_credit(self, edge: str, cpi: int):
        """Process generator: wait for acks of CPI ``cpi - window``.

        Call before *sending* CPI ``cpi`` on ``edge``.  Records the stall
        as a CREDIT phase (idle, excluded from service times).
        """
        need = cpi - self.cfg.window
        if need < 0:
            return
        consumers = self._credit_consumers[edge]
        t0 = self.now
        for c in consumers:
            yield from self.rc.recv(source=c, tag=data_tag(need))
        if self.now > t0:
            self.record(cpi, Phase.CREDIT, t0)

    def send_ack(self, producer_rank: int, cpi: int) -> None:
        """Acknowledge consumption of CPI ``cpi`` to one producer."""
        self.rc.isend(Phantom(ACK_NBYTES, {"ack": cpi}), producer_rank, data_tag(cpi))

    # -- payload helpers ----------------------------------------------------------
    def payload(self, array_or_none, nbytes: int, **meta) -> Any:
        """Compute mode: the array; timing mode: a Phantom of ``nbytes``."""
        if self.cfg.compute:
            return array_or_none
        return Phantom(nbytes, meta)
