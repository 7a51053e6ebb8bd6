"""Experiment service tier: jobs, stages, tasks, workers, streaming.

This package turns the batch-shaped :class:`~repro.bench.engine.SweepRunner`
workflow into a long-running service.  An
:class:`~repro.service.scheduler.ExperimentScheduler` accepts spec
batches from many concurrent clients, executes them over a persistent
worker pool with fair queueing, retry-on-worker-death, cancellation,
and a shared content-addressed cache, and streams results back as cells
complete.  ``repro serve`` / ``repro submit`` put the same scheduler
behind a line-oriented TCP protocol (:mod:`repro.service.server`).

See ``docs/service.md`` for the architecture tour.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    "ExperimentScheduler": "repro.service.scheduler",
    "EventFeed": "repro.service.events",
    "JobHandle": "repro.service.streaming",
    "CellResult": "repro.service.streaming",
    "Job": "repro.service.model",
    "Stage": "repro.service.model",
    "Task": "repro.service.model",
    "TaskSpec": "repro.service.model",
    "State": "repro.service.model",
    "Lifecycle": "repro.service.model",
    "JobCounters": "repro.service.model",
    "InlinePool": "repro.service.pool",
    "ProcessPool": "repro.service.pool",
    "PoolEvent": "repro.service.pool",
    "default_pool": "repro.service.pool",
    "RUN_SPEC_RUNNER": "repro.service.tasks",
    "run_spec_payload": "repro.service.tasks",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
