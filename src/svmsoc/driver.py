"""Host-side reference paths and the hardware/software co-simulation.

run_software_reference mirrors the accelerator's arithmetic bit for bit,
but through a deliberately different mechanism: every multiply and add is
carried out in binary64 and immediately rounded back to binary32.
Because binary64 carries more than twice the binary32 precision plus two
bits, that double rounding is exact for +, -, and * (S. A. Figueroa,
"When is double rounding innocuous?", SIGNUM Newsletter 30(3), 1995), so
agreement with the native binary32 pipeline is a real cross-check rather
than the same code run twice.  One kernel computes AC: batch_classify
runs it once per dataset and takes the dot product with the rows as
lanes, run_software_reference once per instance and takes the dot product
as Python floats.  Each set of products (the S*Fl weight terms, then the
Fl*N dot-product terms) is rounded in one step.  Each sum adds in binary64
and rounds to binary32 after every add: a one-lane sum (one instance's dot
product, or AC at Fl=1) as Python floats stored into a one-element
array("f"), a C double-to-float cast; a sum over more lanes in place on a
binary64 accumulator through a binary32 buffer, so no step allocates.  One
instance's bias step and threshold round through array("f") as well.

run_oracle is the accuracy yardstick: full binary64, per-support-vector
dot products summed afterwards, i.e. a different association order than
the hardware.  cosim glues one hardware and one software run to the
calibrated cycle models and reports speedups; batch_classify scores a
labeled dataset.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .accel import AccelResult, f32_bits, run_accelerator
from .errors import DimensionError, UnknownCalibration
from .model_io import LabeledDataset, StreamFrame, TestInstance, TrainedModel, emit_stream
from .synth import (
    CalibrationSet,
    DirectiveConfig,
    arm_timer_mhz,
    clock_key,
    default_calibration,
    estimate_latency,
    format_pairing,
)

__all__ = [
    "ClockPair",
    "CosimReport",
    "AccuracyReport",
    "run_software_reference",
    "run_oracle",
    "cosim",
    "batch_classify",
]

MEASURED_ANCHOR = "measured_anchor"
ESTIMATED = "estimated"


@dataclass(frozen=True)
class ClockPair:
    """FPGA fabric clock and host core clock, both in MHz.

    Any pair that clock_key accepts is representable; cycle estimates
    exist only for the calibrated pairings (100/666.67, 250/250, 250/666.67).
    """

    fpga_mhz: float
    arm_mhz: float

    def __post_init__(self):
        clock_key(self)


def _lane_sum(terms) -> float:
    """Sum binary32 values first to last from +0.0, rounding each add to binary32.

    The sum is a Python float: each add is binary64, stored into a
    one-element array("f") and read back.  The store is a C double-to-float
    cast (struct would refuse finite doubles beyond the binary32 range).
    """
    acc32 = array("f", (0.0,))
    acc = 0.0
    for term in terms:
        acc32[0] = acc + term
        acc = acc32[0]
    return acc


def _rounded_sum(rows: np.ndarray) -> np.ndarray:
    """Sum the rows of a binary64 matrix first to last, rounding each add.

    The sum starts at +0.0 and lives in binary64: each step adds a row,
    then rounds the sum to binary32 by storing it into a binary32 buffer
    and widens it back.  One column sums as Python floats (_lane_sum);
    more columns add in place with three numpy calls and no new array per
    step.  np.add.accumulate would skip the rounding after each add.
    """
    if rows.shape[1] == 1:
        return np.array((_lane_sum(rows[:, 0].tolist()),))
    acc = np.zeros(rows.shape[1])
    acc32 = np.empty(rows.shape[1], np.float32)
    add = np.add
    for row in rows:
        add(acc, row, out=acc)
        acc32[...] = acc
        acc[...] = acc32
    return acc


def _weight_vector(model: TrainedModel) -> np.ndarray:
    """AC[f] = sum_i alpha_i*y_i*SV_i[f] in binary64, each value a binary32.

    The S*Fl products are rounded in one step and summed in SV order over
    Fl lanes.  The caller ignores numpy's overflow and NaN warnings, so IEEE
    results flow on.
    """
    f64 = np.float64
    ay = model.alpha_y.astype(f64)
    products = (ay[:, None] * model.support_vectors.astype(f64)).astype(np.float32)
    return _rounded_sum(products.astype(f64))


def run_software_reference(
    model: TrainedModel, test: TestInstance, threshold: float = 0.0
) -> AccelResult:
    """Binary64-with-rounding replica of the accelerator pipeline.

    Same accumulation orders as the hardware, one rounding to binary32
    after every operation; returns bit-identical distances.  AC comes from
    the kernel batch_classify shares; the Fl products AC[f]*x[f] are rounded
    in one step and summed as Python floats (_lane_sum), and the bias step
    and the threshold are rounded through one array("f").
    """
    if test.feature_count != model.feature_count:
        raise DimensionError("model", model.feature_count, "instance", test.feature_count)
    with np.errstate(all="ignore"):
        raw = _lane_sum((_weight_vector(model) * test.values).astype(np.float32).tolist())
    # a threshold beyond the binary32 range rounds to +/-inf
    distance, limit = array("f", (raw - model.bias, float(threshold)))
    result = object.__new__(AccelResult)  # each field stored without a call
    fields = result.__dict__
    fields["label"], fields["distance"], fields["raw_distance"] = (
        1 if distance >= limit else -1, distance, raw
    )
    return result


def run_oracle(
    model: TrainedModel, test: TestInstance, threshold: float = 0.0
) -> tuple[int, float]:
    """Full binary64 decision value, per-SV dots summed afterwards.

    Deliberately a different association order than the hardware; used to
    judge accuracy, not bit equality.
    """
    if test.feature_count != model.feature_count:
        raise DimensionError("model", model.feature_count, "instance", test.feature_count)
    sv = model.support_vectors.astype(np.float64)
    dots = sv @ test.values.astype(np.float64)
    d = float(model.alpha_y.astype(np.float64) @ dots - model.bias)
    label = 1 if d >= threshold else -1
    return label, d


@dataclass(frozen=True)
class CosimReport:
    """One joint hardware/software run plus the calibrated cycle story.

    Cycle counts for the software side are ticks of sw_timer_mhz (the
    core clock except for the 100/666.67 pairing, whose measurements are
    100 MHz platform-timer ticks).  cycle_source says whether the
    hardware count is a board measurement or latency-model estimate.
    results_match derives from the two results; times and speedups
    derive from the cycle counts and clocks.
    """

    directive: DirectiveConfig
    clocks: ClockPair
    hw: AccelResult
    sw: AccelResult
    cycle_source: str
    hw_cycles: int
    sw_cycles: int
    sw_cycles_optimized: int
    sw_timer_mhz: float

    @property
    def results_match(self) -> bool:
        """Same label and bit-identical distance from both engines."""
        hw, sw = self.hw, self.sw
        return hw.label == sw.label and f32_bits(hw.distance) == f32_bits(sw.distance)

    @property
    def hw_time_us(self) -> float:
        return self.hw_cycles / self.clocks.fpga_mhz

    @property
    def sw_time_us(self) -> float:
        return self.sw_cycles / self.sw_timer_mhz

    @property
    def sw_opt_time_us(self) -> float:
        return self.sw_cycles_optimized / self.sw_timer_mhz

    @property
    def cycle_speedup_plain(self) -> float:
        return self.sw_cycles / self.hw_cycles

    @property
    def cycle_speedup_optimized(self) -> float:
        return self.sw_cycles_optimized / self.hw_cycles

    @property
    def time_speedup_plain(self) -> float:
        return self.sw_time_us / self.hw_time_us

    @property
    def time_speedup_optimized(self) -> float:
        return self.sw_opt_time_us / self.hw_time_us


def cosim(
    model: TrainedModel,
    test: TestInstance,
    directive,
    clocks: ClockPair,
    threshold: float = 0.0,
    *,
    calibration: CalibrationSet | None = None,
    strict: bool = False,
) -> CosimReport:
    """Run both engines on one instance and attach cycle/speedup figures.

    Hardware cycles come from a measured co-simulation anchor when one
    exists for (S, Fl, directive, clocks); otherwise the synthesis
    latency model plus one cycle per streamed word.  strict=True refuses
    anything that is not a measured/anchored count on both sides.
    """
    cal = calibration if calibration is not None else default_calibration()
    cfg = DirectiveConfig.parse(str(directive))
    token = cfg.name
    s, fl = model.sv_count, model.feature_count

    hw = run_accelerator(emit_stream(model, test), s, fl, threshold)
    sw = run_software_reference(model, test, threshold)

    pairing = clock_key(clocks)
    anchor = cal.cosim_cycles.get((s, fl, token, pairing))
    if anchor is not None:
        hw_cycles, source = anchor, MEASURED_ANCHOR
    elif strict:
        raise UnknownCalibration(
            f"no measured accelerator cycles for {token} at S={s}, Fl={fl},"
            f" {format_pairing(clocks.fpga_mhz, clocks.arm_mhz)}"
        )
    else:
        est = estimate_latency(s, fl, cfg, clocks.fpga_mhz, calibration=cal)
        hw_cycles = est.latency_cycles + StreamFrame.word_count(s, fl)
        source = ESTIMATED

    timer_mhz = cal.arm.get(pairing)
    if timer_mhz is None:
        arm_timer_mhz(pairing, cal)  # refuses the uncalibrated pairing
    fit = cal.fits[pairing]
    if strict and s not in fit.points:
        raise UnknownCalibration(
            f"no measured processor cycles at S={s} for"
            f" {format_pairing(clocks.fpga_mhz, clocks.arm_mhz)}"
        )
    sw_cycles, sw_opt = fit.counts(s, fl, (0, 1))  # plain, then optimized
    report = object.__new__(CosimReport)  # each field stored without a call
    r = report.__dict__
    r["directive"], r["clocks"], r["hw"], r["sw"], r["cycle_source"] = cfg, clocks, hw, sw, source
    r["hw_cycles"], r["sw_cycles"], r["sw_cycles_optimized"] = hw_cycles, sw_cycles, sw_opt
    r["sw_timer_mhz"] = timer_mhz
    return report


@dataclass(frozen=True)
class AccuracyReport:
    """Predicted labels, distances, truth, and the score."""

    predictions: tuple[int, ...]
    distances: tuple[float, ...]
    labels: tuple[int, ...]

    @property
    def total(self) -> int:
        return len(self.labels)

    @property
    def correct(self) -> int:
        return sum(p == t for p, t in zip(self.predictions, self.labels))

    @property
    def accuracy_percent(self) -> float:
        return 100.0 * self.correct / self.total


def batch_classify(
    model: TrainedModel, dataset: LabeledDataset, threshold: float = 0.0
) -> AccuracyReport:
    """Classify every row of the dataset's feature matrix and score it.

    AC is accumulated once per dataset and the dot product runs with the
    matrix rows as lanes, so each distance is bit-identical to a per-row
    run_software_reference call.
    """
    if dataset.feature_count != model.feature_count:
        raise DimensionError("model", model.feature_count, "dataset", dataset.feature_count)
    f32, f64 = np.float32, np.float64
    with np.errstate(all="ignore"):
        ac = _weight_vector(model)
        terms = (ac[:, None] * dataset.features.T.astype(f64)).astype(f32)
        distances = (_rounded_sum(terms.astype(f64)) - model.bias).astype(f32).astype(f64)
        # a threshold beyond the binary32 range rounds to +/-inf
        labels = np.where(distances >= float(f32(threshold)), 1, -1)
    return AccuracyReport(
        predictions=tuple(labels.tolist()),
        distances=tuple(distances.tolist()),
        labels=dataset.labels,
    )
