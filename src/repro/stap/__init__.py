"""PRI-staggered post-Doppler STAP signal processing.

A complete, numerically real implementation of the radar processing
chain the paper parallelises (its Figure 2):

1. :mod:`~repro.stap.doppler` — Doppler filter processing with PRI
   stagger (two staggered sub-CPIs);
2. :mod:`~repro.stap.weights` — adaptive weight computation: *easy*
   (spatial-only, J degrees of freedom) and *hard* (space-time, 2J DoF)
   Doppler bins, MVDR weights from diagonally loaded sample covariance;
3. :mod:`~repro.stap.beamform` — apply weights to form beams;
4. :mod:`~repro.stap.pulse` — LFM pulse compression (matched filter);
5. :mod:`~repro.stap.cfar` — cell-averaging CFAR detection.

:mod:`~repro.stap.scenario` synthesises phased-array CPI data cubes
(targets + clutter ridge + jammer + noise) so the chain can be validated
end-to-end: injected targets must be detected at the right range/Doppler/
beam cells.  :mod:`~repro.stap.chain` is the serial golden reference the
parallel pipeline is checked against, and :mod:`~repro.stap.costs` holds
the per-task flop/byte models that drive the timing simulation.
"""

from repro._lazy import lazy_exports
# Bound eagerly: the function shares its name with its submodule, and a
# later ``import repro.stap.beamform`` would otherwise leave the package
# attribute pointing at the module.  The submodule imports no numpy.
from repro.stap.beamform import beamform

#: Public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    "STAPParams": "repro.stap.params",
    "DataCube": "repro.stap.datacube",
    "Scenario": "repro.stap.scenario",
    "Target": "repro.stap.scenario",
    "Jammer": "repro.stap.scenario",
    "make_cube": "repro.stap.scenario",
    "doppler_process": "repro.stap.doppler",
    "doppler_filter_arrays": "repro.stap.doppler",
    "doppler_window": "repro.stap.doppler",
    "bin_frequency": "repro.stap.doppler",
    "DopplerOutput": "repro.stap.doppler",
    "compute_weights_easy": "repro.stap.weights",
    "compute_weights_hard": "repro.stap.weights",
    "solve_mvdr": "repro.stap.weights",
    "initial_weights": "repro.stap.weights",
    "training_gates": "repro.stap.weights",
    "steering_matrix_easy": "repro.stap.weights",
    "steering_matrix_hard": "repro.stap.weights",
    "WeightSet": "repro.stap.weights",
    "lfm_replica": "repro.stap.pulse",
    "pulse_compress": "repro.stap.pulse",
    "pulse_compress_direct": "repro.stap.pulse",
    "segment_length": "repro.stap.pulse",
    "ca_cfar": "repro.stap.cfar",
    "Detection": "repro.stap.cfar",
    "CFAR_METHODS": "repro.stap.cfar",
    "cfar_threshold_factor": "repro.stap.cfar",
    "go_so_threshold_factor": "repro.stap.cfar",
    "os_threshold_factor": "repro.stap.cfar",
    "ClusteredReport": "repro.stap.cluster",
    "cluster_detections": "repro.stap.cluster",
    "stap_chain": "repro.stap.chain",
    "run_cpi_stream": "repro.stap.chain",
    "ChainResult": "repro.stap.chain",
    "STAPCosts": "repro.stap.costs",
    "fourier_spectrum": "repro.stap.spectrum",
    "mvdr_spectrum": "repro.stap.spectrum",
    "space_time_snapshots": "repro.stap.spectrum",
    "clairvoyant_covariance": "repro.stap.analysis",
    "optimal_weights": "repro.stap.analysis",
    "output_sinr": "repro.stap.analysis",
    "sinr_loss_curve": "repro.stap.analysis",
}

__all__ = list(_EXPORTS)
__all__.insert(__all__.index("WeightSet") + 1, "beamform")

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
