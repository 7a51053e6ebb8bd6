"""The parallel pipeline STAP model — the paper's primary contribution.

Subpackage map:

* :mod:`~repro.core.partition` — block-partition arithmetic used to split
  every task's workload over its nodes and to plan redistributions
  between differently partitioned tasks;
* :mod:`~repro.core.task` / :mod:`~repro.core.graph` — task specs and the
  SD/TD dependency graph (paper Figure 2), with the latency-path rule
  (temporal-dependency tasks are off the path);
* :mod:`~repro.core.pipeline` — pipeline builders: 7-task embedded-I/O
  (Figure 3), 8-task separate-I/O (Figure 4), and the task-combination
  transform of §6 (pulse compression + CFAR merged);
* :mod:`~repro.core.model` — the analytic equations (1)–(14):
  throughput/latency predictions and the combination analysis;
* :mod:`~repro.core.executor` — runs a pipeline on the simulated machine
  (compute mode: real numerics; timing mode: cost-model phantoms) and
  measures throughput, latency, and per-task phase times;
* :mod:`~repro.core.config` / :mod:`~repro.core.result` — the run
  descriptors (``ExecutionConfig``, ``FSConfig``) and ``PipelineResult``,
  importable without the simulation layers;
* :mod:`~repro.core.metrics` — steady-state measurement from traces.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    "BlockPartition": "repro.core.partition",
    "label_block_rows": "repro.core.partition",
    "TaskKind": "repro.core.task",
    "TaskSpec": "repro.core.task",
    "TaskInstance": "repro.core.task",
    "DependencyKind": "repro.core.graph",
    "Edge": "repro.core.graph",
    "TaskGraph": "repro.core.graph",
    "NodeAssignment": "repro.core.pipeline",
    "PipelineSpec": "repro.core.pipeline",
    "build_embedded_pipeline": "repro.core.pipeline",
    "build_separate_io_pipeline": "repro.core.pipeline",
    "combine_pulse_cfar": "repro.core.pipeline",
    "PipelineModel": "repro.core.model",
    "IOModel": "repro.core.model",
    "CombinationAnalysis": "repro.core.model",
    "ExecutionConfig": "repro.core.config",
    "FSConfig": "repro.core.config",
    "PipelineExecutor": "repro.core.executor",
    "PipelineResult": "repro.core.result",
    "ArrivalSpec": "repro.core.arrivals",
    "Substrate": "repro.core.executor",
    "validate_fs_hints": "repro.core.executor",
    "PipelinePlan": "repro.core.plan",
    "TaskPhaseStats": "repro.core.metrics",
    "PipelineMeasurement": "repro.core.metrics",
    "measure": "repro.core.metrics",
    "TaskStages": "repro.core.stages",
    "BoundedQueue": "repro.core.stages",
    "run_sequential": "repro.core.stages",
    "run_threaded": "repro.core.stages",
    "ScalingStudy": "repro.core.scaling",
    "run_scaling_study": "repro.core.scaling",
    "validate_plan": "repro.core.validate",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
