"""Experiment harness: one driver per paper table/figure.

Each ``run_*`` function sweeps the paper's configurations, returns a
structured result, and can render itself in the paper's table/figure
format.  The pytest-benchmark files under ``benchmarks/`` are thin
wrappers over these drivers, so every artifact can also be regenerated
from a plain Python session::

    from repro.bench import run_table1
    print(run_table1().render())
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    "DiscoveredArtifacts": "repro.bench.artifacts",
    "ParsedTextArtifact": "repro.bench.artifacts",
    "discover_artifacts": "repro.bench.artifacts",
    "parse_text_artifact": "repro.bench.artifacts",
    "BenchCase": "repro.bench.cases",
    "PAPER_CASES": "repro.bench.cases",
    "paper_cases": "repro.bench.cases",
    "paper_filesystems": "repro.bench.cases",
    "ExperimentSpec": "repro.bench.engine",
    "SweepRunner": "repro.bench.engine",
    "ResultStore": "repro.bench.store",
    "run_spec": "repro.bench.engine",
    "DiskFault": "repro.bench.engine",
    "NodeFault": "repro.bench.engine",
    "WriterLoad": "repro.bench.engine",
    "CellResult": "repro.bench.experiments",
    "ExperimentResult": "repro.bench.experiments",
    "run_single": "repro.bench.experiments",
    "run_table1": "repro.bench.experiments",
    "run_table2": "repro.bench.experiments",
    "run_table3": "repro.bench.experiments",
    "run_table4": "repro.bench.experiments",
    "run_fig8": "repro.bench.experiments",
    "PIPELINES": "repro.bench.engine",
    "run_ablation_stripe_sweep": "repro.bench.experiments",
    "run_ablation_bottleneck_migration": "repro.bench.experiments",
    "run_ablation_straggler_disk": "repro.bench.experiments",
    "run_ablation_straggler_node": "repro.bench.experiments",
    "run_ablation_async": "repro.bench.experiments",
    "run_ablation_combination_analysis": "repro.bench.experiments",
    "run_ablation_writer_interference": "repro.bench.experiments",
    "run_ablation_interference": "repro.bench.experiments",
    "InterferenceAblation": "repro.bench.experiments",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
