"""Analytic surrogate screening for experiment sweeps.

The paper's own performance model (Eqs. 1-14, :mod:`repro.core.model`)
predicts most sweep cells well away from any *decision boundary* — the
places where a conclusion could flip: which I/O strategy wins, which
task is the bottleneck.  Simulating those far-from-boundary cells buys
no information the model doesn't already give, so this module lets the
engine skip them:

* :func:`model_for_spec` builds the :class:`~repro.core.model.PipelineModel`
  for one :class:`~repro.bench.engine.ExperimentSpec` (including the
  first-order :class:`~repro.core.model.IOModel` with the same disk
  parameters the executor would use).
* :class:`SurrogateScreen` calibrates the model against cells already
  simulated into a :class:`~repro.bench.store.ResultStore`, then
  :meth:`~SurrogateScreen.plan` partitions a batch of specs into
  *simulate* and *predict* decisions.
* :func:`predicted_result` materialises a prediction as a
  :class:`~repro.core.result.PipelineResult` tagged
  ``source="predicted"`` with its error bound attached, so predictions
  flow through the exact plumbing (store, wire format, sweep results)
  as simulations — and are never mistaken for them.

Calibration: bias first, then bounds
------------------------------------
The first-order model's *absolute* error is large (tens of percent: it
omits queueing and pipeline-fill effects) but highly *systematic*: the
sim/model ratio is nearly constant within a (machine, pipeline, node
count) group across file-system configurations.  So the screen
calibrates a multiplicative **scale** per group (geometric mean of the
observed sim/model ratios, separately for throughput and latency) and a
**residual bound** (worst ratio spread around the scale, times a safety
factor, plus a floor).  Predictions are bias-corrected model values;
the bound covers what bias correction cannot.

Comparisons between two strategies on the *same scenario* are tighter
still: the model's bias is shared by both sides and cancels, so the
**pairwise bound** — calibrated from scenarios simulated under both
strategies — is typically a few percent even where absolute bounds are
15%+.  Strategy-crossover decisions use the pairwise bound.

A cell is simulated when the model cannot vouch for the conclusion: it
carries a fault injection the model doesn't capture
(``"unpredictable"``), its group or strategy pair lacks calibration
evidence (``"calibration"``), its predicted bottleneck margin is inside
the structural band — a bottleneck flip could hide there
(``"bottleneck"``) — or its strategy comparison is *contested*: the
predicted gap to a sibling strategy is inside the pairwise band yet too
large to certify an ε-equivalence (``"crossover"``).  Everything else
is ``"clear"`` and answered from the model.

Screening is opt-in per spec (``ExperimentSpec.screening``):

* ``"off"``    — today's behaviour, every cell simulated;
* ``"screen"`` — simulate boundary/uncalibrated/faulty cells, predict
  the rest;
* ``"predict-all"`` — predict every model-predictable cell (faulty
  cells are still simulated); a pure model sweep with bounds attached.

See ``docs/surrogate.md`` for the full soundness argument.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import PipelineMeasurement, TaskPhaseStats
from repro.core.model import IOModel, PipelineModel
from repro.core.result import PipelineResult
from repro.core.task import TaskKind
from repro.errors import ConfigurationError
from repro.trace.collector import TraceCollector

__all__ = [
    "SCREENING_MODES",
    "DEFAULT_BOUND",
    "GroupCalibration",
    "Prediction",
    "ScreenDecision",
    "ScreenPlan",
    "SurrogateScreen",
    "model_for_spec",
    "predictable",
    "predicted_result",
]

#: Legal values of ``ExperimentSpec.screening``.
SCREENING_MODES = ("off", "screen", "predict-all")

#: Relative error bound assumed for a group with no (or too little)
#: calibration evidence.  Deliberately wide: with it, essentially every
#: contested comparison lands inside the band and gets simulated, so an
#: uncalibrated screen degrades toward full simulation, never toward
#: silent wrong answers.
DEFAULT_BOUND = 0.5

#: Calibrated bounds are ``safety * worst-residual + floor``: model
#: error on unseen cells can exceed the seen worst case, and a handful
#: of lucky calibration cells must not produce a near-zero band.
SAFETY_FACTOR = 1.5
BOUND_FLOOR = 0.05

#: Floor on the pairwise (same-scenario, cross-strategy) bound.
PAIR_FLOOR = 0.02

#: Two strategies whose true throughputs differ by less than this are
#: one conclusion: "equivalent".  The screen may certify a predicted
#: near-tie as equivalence when prediction gap + pairwise bound stays
#: under this tolerance.
TIE_TOLERANCE = 0.05

#: Bottleneck flips hide where the predicted I/O cycle time and the top
#: compute-task time are within this relative margin of each other (the
#: knee of the stripe-factor curves).
MIN_BOTTLENECK_MARGIN = 0.10

#: Groups with fewer calibrated cells than this keep :data:`DEFAULT_BOUND`.
MIN_CALIBRATION = 2


def predictable(spec) -> bool:
    """True if the analytic model covers everything the cell simulates.

    Fault injections (slow/flaky/crashing disks and nodes, concurrent
    writers) are outside Eqs. 1-14, so any cell carrying one must be
    simulated regardless of screening mode.
    """
    return (
        spec.disk_fault is None
        and spec.node_fault is None
        and spec.writer is None
        and spec.server_crash is None
        and spec.flaky_disk is None
    )


def model_for_spec(spec) -> PipelineModel:
    """The paper's analytic model for one experiment cell.

    Uses the same resolved disk parameters the executor would build its
    stripe servers with (spec overrides, else machine preset defaults).
    """
    from repro.bench.engine import MACHINES

    preset = MACHINES[spec.machine]()
    fs = spec.fs
    io_model = IOModel(
        stripe_factor=fs.stripe_factor,
        stripe_unit=fs.stripe_unit,
        disk_bw=fs.disk_bw or preset.disk_bw,
        disk_overhead=(
            fs.disk_overhead if fs.disk_overhead is not None else preset.disk_overhead
        ),
        asynchronous=fs.kind == "pfs",
    )
    return PipelineModel(spec.build_pipeline(), spec.params, preset, io_model)


def group_key(spec) -> Tuple[str, str, int]:
    """Calibration group of a cell: (machine, pipeline, compute nodes).

    Model error is dominated by what the model leaves out — queueing on
    a given machine's links and disks, a given pipeline's traffic shape
    at a given scale — so the sim/model bias transfers within these
    groups and not across them.
    """
    return (spec.machine, spec.pipeline, spec.assignment.total_without_io)


def pair_key(spec_a, spec_b) -> Tuple[str, str, str, int]:
    """Calibration group of a cross-strategy comparison."""
    lo, hi = sorted((spec_a.pipeline, spec_b.pipeline))
    return (spec_a.machine, lo, hi, spec_a.assignment.total_without_io)


def scenario_key(spec) -> str:
    """Everything about a cell *except* its pipeline/strategy.

    Two specs with equal scenario keys are the same experiment run under
    different I/O strategies — exactly the pairs a strategy-crossover
    conclusion compares.
    """
    d = spec.to_dict()
    d.pop("pipeline")
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass(frozen=True)
class GroupCalibration:
    """Bias scales and residual bounds for one calibration group."""

    scale_tp: float = 1.0
    scale_lat: float = 1.0
    bound_tp: float = DEFAULT_BOUND
    bound_lat: float = DEFAULT_BOUND
    n: int = 0

    @property
    def bound(self) -> float:
        """Headline bound: covers both calibrated metrics."""
        return max(self.bound_tp, self.bound_lat)


#: Calibration applied when a group has no usable evidence.
UNCALIBRATED = GroupCalibration()


def io_boundary_margin(model: PipelineModel) -> float:
    """Relative distance of a cell from the I/O-vs-compute boundary.

    The bottleneck flip the file-system sweeps care about is between the
    predicted I/O cycle time and the largest non-I/O task time (the
    knee of the stripe-factor curves).  Model bias cancels in the ratio.
    Returns ``inf`` for pipelines that do no I/O — there, the task
    ranking does not depend on the file system at all, so the
    calibration cells already witnessed it.
    """
    io_kinds = (TaskKind.PARALLEL_READ, TaskKind.DOPPLER_EMBEDDED_IO)
    io_tasks = [t for t in model.spec.tasks if t.kind in io_kinds]
    if not io_tasks or model.io_model is None:
        return float("inf")
    io = max(
        model.io_model.cycle_time(t.n_nodes, model.costs.cube_bytes())
        for t in io_tasks
    )
    io_names = {t.name for t in io_tasks}
    times = model.predicted_times()
    rest = max((v for n, v in times.items() if n not in io_names), default=0.0)
    top = max(io, rest)
    if top <= 0.0:
        return float("inf")
    return abs(io - rest) / top


@dataclass(frozen=True)
class Prediction:
    """Bias-corrected model outputs for one cell plus error bands."""

    throughput: float
    latency: float
    model_throughput: float      #: raw (uncorrected) model value
    model_latency: float
    task_times: Dict[str, float]
    bound_tp: float
    bound_lat: float
    calibrated: int              #: store cells that calibrated the group
    group: Tuple[str, str, int] = ("", "", 0)
    #: Distance from the I/O-vs-compute boundary (see
    #: :func:`io_boundary_margin`); ``inf`` for I/O-free pipelines.
    io_margin: float = float("inf")

    @property
    def bound(self) -> float:
        """Headline relative error bound (worst of the two metrics)."""
        return max(self.bound_tp, self.bound_lat)

    @property
    def bottleneck_task(self) -> str:
        return max(self.task_times, key=self.task_times.__getitem__)


@dataclass(frozen=True)
class ScreenDecision:
    """One cell's screening outcome."""

    index: int
    action: str                      #: ``"simulate"`` or ``"predict"``
    reason: str                      #: why (see module docstring)
    prediction: Optional[Prediction] = None


@dataclass
class ScreenPlan:
    """A batch's screening decisions, in submission order."""

    decisions: List[ScreenDecision] = field(default_factory=list)

    @property
    def n_simulated(self) -> int:
        return sum(1 for d in self.decisions if d.action == "simulate")

    @property
    def n_predicted(self) -> int:
        return sum(1 for d in self.decisions if d.action == "predict")

    def summary(self) -> Dict[str, int]:
        """Reason histogram, for logging and tests."""
        out: Dict[str, int] = {}
        for d in self.decisions:
            out[d.reason] = out.get(d.reason, 0) + 1
        return out


class SurrogateScreen:
    """Calibrated model-vs-boundary screen over experiment batches.

    Parameters
    ----------
    store:
        Optional :class:`~repro.bench.store.ResultStore` holding
        previously *simulated* cells; their model-vs-measured ratios
        calibrate the per-group scales and bounds.  Entries tagged
        ``source="predicted"`` are never used for calibration (that
        would let the model vouch for itself).
    safety / default_bound / min_calibration / tie_tolerance:
        See the module-level constants they default to.
    """

    def __init__(
        self,
        store=None,
        *,
        safety: float = SAFETY_FACTOR,
        default_bound: float = DEFAULT_BOUND,
        min_calibration: int = MIN_CALIBRATION,
        tie_tolerance: float = TIE_TOLERANCE,
    ) -> None:
        self.store = store
        self.safety = safety
        self.default_bound = default_bound
        self.min_calibration = min_calibration
        self.tie_tolerance = tie_tolerance
        self._groups: Optional[Dict[Tuple[str, str, int], GroupCalibration]] = None
        self._pairs: Dict[Tuple[str, str, str, int], Tuple[float, int]] = {}

    # -- calibration -------------------------------------------------------
    def _calibration_rows(self) -> List[Tuple[object, float, float, float, float]]:
        """(spec, sim_tp, sim_lat, model_tp, model_lat) per usable
        simulated store cell."""
        from repro.bench.engine import ExperimentSpec

        rows: List[Tuple[object, float, float, float, float]] = []
        if self.store is None:
            return rows
        for spec_hash in self.store.hashes():
            payload = self.store.load(spec_hash)
            if payload is None:
                continue
            result = payload.get("result", {})
            if result.get("source") == "predicted":
                continue
            try:
                spec = ExperimentSpec.from_dict(payload["spec"])
            except Exception:
                continue
            if not predictable(spec):
                continue
            meas = result.get("measurement", {})
            sim_tp = meas.get("throughput")
            sim_lat = meas.get("latency")
            if not sim_tp or not sim_lat or sim_tp <= 0 or sim_lat <= 0:
                continue
            try:
                model = model_for_spec(spec)
                tp = model.predicted_throughput()
                lat = model.predicted_latency()
            except Exception:
                continue
            if tp <= 0 or lat <= 0:
                continue
            rows.append((spec, sim_tp, sim_lat, tp, lat))
        return rows

    def _calibrate(self) -> None:
        rows = self._calibration_rows()

        # Per-group bias scale (geometric mean of sim/model) + residual
        # bound around it, separately for throughput and latency.
        by_group: Dict[Tuple[str, str, int], List[Tuple[float, float]]] = {}
        for spec, sim_tp, sim_lat, tp, lat in rows:
            by_group.setdefault(group_key(spec), []).append(
                (sim_tp / tp, sim_lat / lat)
            )
        groups: Dict[Tuple[str, str, int], GroupCalibration] = {}
        for g, ratios in by_group.items():
            scale_tp = _geomean([r for r, _ in ratios])
            scale_lat = _geomean([r for _, r in ratios])
            res_tp = max(abs(r / scale_tp - 1.0) for r, _ in ratios)
            res_lat = max(abs(r / scale_lat - 1.0) for _, r in ratios)
            groups[g] = GroupCalibration(
                scale_tp=scale_tp,
                scale_lat=scale_lat,
                bound_tp=self.safety * res_tp + BOUND_FLOOR,
                bound_lat=self.safety * res_lat + BOUND_FLOOR,
                n=len(ratios),
            )
        self._groups = groups

        # Pairwise bound: scenarios simulated under >= 2 strategies
        # calibrate how well the model predicts the *ratio* between
        # strategies (shared bias cancels, so this is much tighter).
        by_scenario: Dict[str, List[Tuple[object, float, float]]] = {}
        for spec, sim_tp, _sim_lat, tp, _lat in rows:
            by_scenario.setdefault(scenario_key(spec), []).append(
                (spec, sim_tp, tp)
            )
        pair_res: Dict[Tuple[str, str, str, int], List[float]] = {}
        for members in by_scenario.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    sa, sim_a, mod_a = members[i]
                    sb, sim_b, mod_b = members[j]
                    if sa.pipeline == sb.pipeline:
                        continue
                    d = (mod_a / mod_b) / (sim_a / sim_b)
                    pair_res.setdefault(pair_key(sa, sb), []).append(
                        abs(d - 1.0)
                    )
        self._pairs = {
            k: (self.safety * max(res) + PAIR_FLOOR, len(res))
            for k, res in pair_res.items()
        }

    def _group_calibration(self, spec) -> GroupCalibration:
        if self._groups is None:
            self._calibrate()
        cal = self._groups.get(group_key(spec), UNCALIBRATED)
        if cal.n < self.min_calibration:
            # Too little evidence: keep the observed scales (a biased
            # centre beats none) but refuse to tighten the bounds.
            return GroupCalibration(
                scale_tp=cal.scale_tp,
                scale_lat=cal.scale_lat,
                bound_tp=self.default_bound,
                bound_lat=self.default_bound,
                n=cal.n,
            )
        return cal

    def pair_bound(self, spec_a, spec_b) -> Optional[float]:
        """Calibrated cross-strategy ratio bound, or None if the pair
        has no calibration scenarios."""
        if self._groups is None:
            self._calibrate()
        entry = self._pairs.get(pair_key(spec_a, spec_b))
        return entry[0] if entry is not None else None

    # -- prediction --------------------------------------------------------
    def predict(self, spec) -> Optional[Prediction]:
        """Bias-corrected prediction for a cell, or None if the cell is
        not model-predictable."""
        if not predictable(spec):
            return None
        model = model_for_spec(spec)
        cal = self._group_calibration(spec)
        tp = model.predicted_throughput()
        lat = model.predicted_latency()
        return Prediction(
            throughput=tp * cal.scale_tp,
            latency=lat * cal.scale_lat,
            model_throughput=tp,
            model_latency=lat,
            task_times=model.predicted_times(),
            bound_tp=cal.bound_tp,
            bound_lat=cal.bound_lat,
            calibrated=cal.n,
            group=group_key(spec),
            io_margin=io_boundary_margin(model),
        )

    # -- screening ---------------------------------------------------------
    def plan(self, specs: Sequence, mode: str = "screen") -> ScreenPlan:
        """Partition ``specs`` into simulate/predict decisions.

        ``mode`` is a screening mode from :data:`SCREENING_MODES`
        (``"off"`` is accepted and simulates everything, so callers can
        pass a spec's mode straight through).
        """
        if mode not in SCREENING_MODES:
            raise ConfigurationError(
                f"unknown screening mode {mode!r}; choose from {SCREENING_MODES}"
            )
        plan = ScreenPlan()
        if mode == "off":
            plan.decisions = [
                ScreenDecision(i, "simulate", "screening-off")
                for i in range(len(specs))
            ]
            return plan

        predictions: List[Optional[Prediction]] = [self.predict(s) for s in specs]
        # Sibling strategies on the same scenario, for crossover checks.
        scenarios: Dict[str, List[int]] = {}
        for i, (spec, pred) in enumerate(zip(specs, predictions)):
            if pred is not None:
                scenarios.setdefault(scenario_key(spec), []).append(i)

        for i, (spec, pred) in enumerate(zip(specs, predictions)):
            if pred is None:
                plan.decisions.append(ScreenDecision(i, "simulate", "unpredictable"))
                continue
            if mode == "predict-all":
                plan.decisions.append(ScreenDecision(i, "predict", "forced", pred))
                continue
            if pred.calibrated < self.min_calibration:
                plan.decisions.append(
                    ScreenDecision(i, "simulate", "calibration", pred)
                )
                continue
            if pred.io_margin <= MIN_BOTTLENECK_MARGIN:
                # Near the I/O-vs-compute knee: the bottleneck flip
                # could hide inside the band.
                plan.decisions.append(ScreenDecision(i, "simulate", "bottleneck", pred))
                continue
            reason = "clear"
            for j in scenarios.get(scenario_key(spec), ()):
                if j == i:
                    continue
                other_spec, other = specs[j], predictions[j]
                if other_spec.pipeline == spec.pipeline:
                    continue
                pb = self.pair_bound(spec, other_spec)
                if pb is None:
                    # No cross-strategy calibration for this pair.
                    reason = "calibration"
                    break
                gap = abs(
                    math.log(pred.throughput) - math.log(other.throughput)
                )
                if gap > pb:
                    continue   # winner certain despite the band
                if gap + pb <= self.tie_tolerance:
                    continue   # certified equivalent within tolerance
                # Sign uncertain and the difference could exceed the
                # tie tolerance: only simulation can call this one.
                reason = "crossover"
                break
            if reason == "clear":
                plan.decisions.append(ScreenDecision(i, "predict", "clear", pred))
            else:
                plan.decisions.append(ScreenDecision(i, "simulate", reason, pred))
        return plan


def predicted_result(spec, prediction: Prediction) -> PipelineResult:
    """Materialise a prediction as a ``source="predicted"`` result.

    The result reuses the standard :class:`PipelineResult` shape so it
    flows through the store/wire/sweep plumbing unchanged: the measured
    fields carry the bias-corrected model values, the ``model_*``
    fields the raw model values, the per-task breakdown books the whole
    predicted time as compute (the model doesn't decompose phases), and
    the trace/detections are empty.  The ``source`` tag and
    ``prediction_bound`` keep it distinguishable everywhere.
    """
    pipeline = spec.build_pipeline()
    task_stats = {
        name: TaskPhaseStats(task=name, recv=0.0, compute=t, send=0.0)
        for name, t in prediction.task_times.items()
    }
    measurement = PipelineMeasurement(
        task_stats=task_stats,
        throughput=prediction.throughput,
        latency=prediction.latency,
        model_throughput=prediction.model_throughput,
        model_latency=prediction.model_latency,
    )
    return PipelineResult(
        spec=pipeline,
        cfg=spec.cfg,
        fs_label=spec.fs.label(),
        machine_name=spec.machine,
        trace=TraceCollector(),
        measurement=measurement,
        detections=[],
        elapsed_sim_time=0.0,
        source="predicted",
        prediction_bound=prediction.bound,
    )
