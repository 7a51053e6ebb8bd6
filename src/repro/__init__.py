"""repro — parallel pipelined STAP with simulated parallel I/O.

A production-quality reproduction of Liao, Choudhary, Weiner & Varshney,
*Design and Evaluation of I/O Strategies for Parallel Pipelined STAP
Applications* (IPPS 2000).

The package layers, bottom to top:

* :mod:`repro.sim` — deterministic discrete-event simulation kernel;
* :mod:`repro.machine` — simulated multicomputers (Paragon-like mesh,
  SP-like multistage switch) with calibrated presets;
* :mod:`repro.mpi` — MPI/NX-like message passing over the machine;
* :mod:`repro.pfs` — striped parallel file systems: async-capable PFS
  and synchronous-only PIOFS;
* :mod:`repro.stap` — the real PRI-staggered post-Doppler STAP numerics
  (Doppler filtering, adaptive weights, beamforming, pulse compression,
  CFAR) plus flop-exact cost models;
* :mod:`repro.io` — the radar's round-robin data files;
* :mod:`repro.core` — **the paper's contribution**: the parallel
  pipeline model, its two I/O strategies, the task-combination
  transform, the analytic equations (1)-(14), and the executor;
* :mod:`repro.trace` / :mod:`repro.bench` — measurement and the
  per-table/figure experiment harness;
* :mod:`repro.service` — the experiment service tier: a job/stage/task
  scheduler with persistent workers, streaming results, and a shared
  cache, serving many clients (``repro serve`` / ``repro submit``);
* :mod:`repro.analysis` — the offline analysis facade: ``load()`` any
  result artifact, ``analyze_sweep()`` a directory/cache of them into a
  bottleneck narrative, ``render()`` it as text/JSON/HTML, plus the
  live dashboard behind ``repro dash``.

Quick start — the one-call facade::

    import repro

    result = repro.run(case=1, pipeline="embedded", stripe_factor=64,
                       n_cpis=8, warmup=2)
    print(result.throughput, "CPIs/s,", result.latency, "s latency")

    # with live metrics sampled every 0.25 simulated seconds:
    result = repro.run(case=3, metrics_interval=0.25)
    print(sorted(result.metrics["gauges"]))

or the explicit layers (identical results)::

    from repro import (
        NodeAssignment, build_embedded_pipeline, PipelineExecutor,
        FSConfig, ExecutionConfig, paragon, STAPParams,
    )

    params = STAPParams()
    spec = build_embedded_pipeline(NodeAssignment.case(1, params))
    result = PipelineExecutor(
        spec, params, paragon(), FSConfig("pfs", stripe_factor=64),
        ExecutionConfig(n_cpis=8, warmup=2),
    ).run()
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> defining module.  Names resolve on first access (PEP
#: 562), so ``import repro`` loads no numerics; scipy is imported only
#: by the functional STAP path (adaptive weights, spectra, SINR).
_EXPORTS = {
    "run": "repro.api",
    "analysis": "repro.analysis",
    "load": "repro.analysis",
    "analyze_sweep": "repro.analysis",
    "render": "repro.analysis",
    "MetricsRegistry": "repro.obs",
    "ExecutionConfig": "repro.core.config",
    "ExperimentSpec": "repro.bench.engine",
    "SweepRunner": "repro.bench.engine",
    "ExperimentScheduler": "repro.service",
    "JobHandle": "repro.service",
    "ResultStore": "repro.bench.store",
    "run_spec": "repro.bench.engine",
    "FSConfig": "repro.core.config",
    "PipelineExecutor": "repro.core.executor",
    "PipelineResult": "repro.core.result",
    "ArrivalSpec": "repro.core.arrivals",
    "ScenarioSpec": "repro.scenario",
    "TenantSpec": "repro.scenario",
    "ScenarioResult": "repro.scenario",
    "run_scenario": "repro.scenario",
    "PipelineModel": "repro.core.model",
    "IOModel": "repro.core.model",
    "CombinationAnalysis": "repro.core.model",
    "NodeAssignment": "repro.core.pipeline",
    "PipelineSpec": "repro.core.pipeline",
    "build_embedded_pipeline": "repro.core.pipeline",
    "build_separate_io_pipeline": "repro.core.pipeline",
    "combine_pulse_cfar": "repro.core.pipeline",
    "MachinePreset": "repro.machine.presets",
    "paragon": "repro.machine.presets",
    "ibm_sp": "repro.machine.presets",
    "generic_cluster": "repro.machine.presets",
    "STAPParams": "repro.stap.params",
    "Scenario": "repro.stap.scenario",
    "Target": "repro.stap.scenario",
    "Jammer": "repro.stap.scenario",
    "make_cube": "repro.stap.scenario",
    "stap_chain": "repro.stap.chain",
    "run_cpi_stream": "repro.stap.chain",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
