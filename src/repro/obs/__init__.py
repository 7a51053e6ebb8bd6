"""Live metrics and time-series observability for simulated runs.

The paper's whole argument is about *where the bottleneck sits* — disk
queues vs. interconnect links vs. compute — and this package makes that
visible over simulated time instead of only post-hoc:

* :mod:`repro.obs.instruments` — typed instruments (:class:`Counter`,
  :class:`Gauge`, :class:`Histogram`, :class:`Timeseries`) in a
  :class:`MetricsRegistry`;
* :mod:`repro.obs.sampler` — the kernel-hook :class:`Sampler` that
  snapshots pull gauges at a fixed simulated interval with zero effect
  on event ordering;
* :mod:`repro.obs.instrument` — :func:`instrument_pipeline`, the
  standard gauge set over a live executor's hot seams;
* :mod:`repro.obs.report` — read-side analysis of the exported JSON
  artifact (:func:`bottleneck_profile`, summaries, sparklines);
* :mod:`repro.obs.service` — :class:`ServiceMetrics`, the experiment
  scheduler's instrument set (queue depth per client, tasks in flight,
  worker respawns, cache and dedupe hits).

Enable per run with ``ExecutionConfig(metrics_interval=0.1)`` or
``repro run --metrics``; the artifact lands on
``PipelineResult.metrics`` and exports as JSON, Prometheus text, or
chrome-trace counter tracks (see :mod:`repro.trace.export` and
``docs/observability.md``).
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    "ServiceMetrics": "repro.obs.service",
    "METRICS_SCHEMA": "repro.obs.instruments",
    "Counter": "repro.obs.instruments",
    "Gauge": "repro.obs.instruments",
    "Histogram": "repro.obs.instruments",
    "Timeseries": "repro.obs.instruments",
    "MetricsRegistry": "repro.obs.instruments",
    "Sampler": "repro.obs.sampler",
    "instrument_pipeline": "repro.obs.instrument",
    "instrument_substrate": "repro.obs.instrument",
    "validate_metrics_dict": "repro.obs.instruments",
    "bottleneck_profile": "repro.obs.report",
    "render_metrics_summary": "repro.obs.report",
    "sparkline": "repro.obs.report",
    "time_weighted_mean": "repro.obs.report",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
