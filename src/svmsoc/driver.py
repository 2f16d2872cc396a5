"""Host-side reference paths and the hardware/software co-simulation.

run_software_reference mirrors the accelerator's arithmetic bit for bit,
but through a deliberately different mechanism: every multiply and add is
carried out in binary64 and immediately rounded back to binary32.
Because binary64 carries more than twice the binary32 precision plus two
bits, that double rounding is exact for +, -, and *, so agreement with
the native binary32 pipeline is a real cross-check rather than the same
code run twice.  One kernel computes AC once and then the dot product
with the instances as lanes; run_software_reference runs it with one
lane, batch_classify once per dataset.  Each set of products (the S*Fl
weight terms, then the Fl*N dot-product terms) is rounded in one step;
each sum adds in place on a binary64 accumulator and rounds it through a
binary32 buffer after every add, so no step allocates.

run_oracle is the accuracy yardstick: full binary64, per-support-vector
dot products summed afterwards, i.e. a different association order than
the hardware.  cosim glues one hardware and one software run to the
calibrated cycle models and reports speedups; batch_classify scores a
labeled dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accel import AccelResult, f32_bits, run_accelerator
from .errors import DimensionError, UnknownCalibration
from .model_io import LabeledDataset, TestInstance, TrainedModel, emit_stream
from .synth import (
    CalibrationSet,
    DirectiveConfig,
    arm_entry_for,
    clock_key,
    default_calibration,
    estimate_arm_cycles,
    estimate_latency,
    stream_word_count,
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

    Any positive pair is representable; cycle estimates exist only for
    the calibrated pairings (100/666.67, 250/250, 250/666.67).
    """

    fpga_mhz: float
    arm_mhz: float

    def __post_init__(self):
        if not (self.fpga_mhz > 0 and self.arm_mhz > 0):
            raise ValueError("clocks must be positive")


def _rounded_sum(rows: np.ndarray) -> np.ndarray:
    """Sum the rows of a binary64 matrix first to last, rounding each add.

    The sum lives in one binary64 accumulator: each step adds a row in
    place, then rounds the sum to binary32 by storing it into a binary32
    buffer and widens it back.  Three numpy calls and no new array per
    step; np.add.accumulate would skip the rounding after each add.
    """
    acc = np.zeros(rows.shape[1])
    acc32 = np.empty(rows.shape[1], np.float32)
    add = np.add
    for row in rows:
        add(acc, row, out=acc)
        acc32[...] = acc
        acc[...] = acc32
    return acc


def _reference_kernel(model: TrainedModel, x: np.ndarray, threshold: float):
    """Score the rows of the (N, Fl) binary32 matrix x against one model.

    Every multiply and add is evaluated in binary64 and rounded once to
    binary32.  The S*Fl products alpha_i*y_i*SV_i[f] are rounded in one
    step and summed in SV order over Fl lanes into AC; the Fl*N products
    AC[f]*x[n, f] are rounded in one step and summed in feature order over
    N instance lanes.  Returns (labels, distances, raw distances), each of
    length N.
    """
    f32, f64 = np.float32, np.float64
    with np.errstate(all="ignore"):
        ay = model.alpha_y.astype(f64)
        products = (ay[:, None] * model.support_vectors.astype(f64)).astype(f32)
        ac = _rounded_sum(products.astype(f64))
        terms = (ac[:, None] * x.T.astype(f64)).astype(f32)
        raw = _rounded_sum(terms.astype(f64))
        distances = (raw - model.bias).astype(f32).astype(f64)
    labels = np.where(distances >= float(np.float32(threshold)), 1, -1)
    return labels, distances, raw


def run_software_reference(
    model: TrainedModel, test: TestInstance, threshold: float = 0.0
) -> AccelResult:
    """Binary64-with-rounding replica of the accelerator pipeline.

    Same accumulation orders as the hardware, one rounding to binary32
    after every operation; returns bit-identical distances.  This is the
    batch kernel run with a single instance lane.
    """
    if test.feature_count != model.feature_count:
        raise DimensionError(
            f"model has {model.feature_count} features, instance has"
            f" {test.feature_count}"
        )
    labels, distances, raw = _reference_kernel(model, test.values[None, :], threshold)
    return AccelResult(
        label=int(labels[0]),
        distance=float(distances[0]),
        raw_distance=float(raw[0]),
        finite=bool(np.isfinite(distances[0])),
    )


def run_oracle(
    model: TrainedModel, test: TestInstance, threshold: float = 0.0
) -> tuple[int, float]:
    """Full binary64 decision value, per-SV dots summed afterwards.

    Deliberately a different association order than the hardware; used to
    judge accuracy, not bit equality.
    """
    if test.feature_count != model.feature_count:
        raise DimensionError(
            f"model has {model.feature_count} features, instance has"
            f" {test.feature_count}"
        )
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
    """

    directive: DirectiveConfig
    clocks: ClockPair
    hw: AccelResult
    sw: AccelResult
    results_match: bool
    cycle_source: str
    hw_cycles: int
    sw_cycles: int
    sw_cycles_optimized: int
    sw_timer_mhz: float
    hw_time_us: float
    sw_time_us: float
    sw_opt_time_us: float
    cycle_speedup_plain: float
    cycle_speedup_optimized: float
    time_speedup_plain: float
    time_speedup_optimized: float


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
    results_match = hw.label == sw.label and f32_bits(hw.distance) == f32_bits(
        sw.distance
    )

    anchor = cal.hw_cycles.get((s, fl, token, clock_key(clocks)))
    if anchor is not None:
        hw_cycles, source = anchor, MEASURED_ANCHOR
    elif strict:
        raise UnknownCalibration(
            f"no measured accelerator cycles for {token} at S={s}, Fl={fl},"
            f" FPGA {clocks.fpga_mhz:g} MHz / ARM {clocks.arm_mhz:g} MHz"
        )
    else:
        est = estimate_latency(s, fl, cfg, clocks.fpga_mhz, calibration=cal)
        hw_cycles = est.latency_cycles + stream_word_count(s, fl)
        source = ESTIMATED

    arm = arm_entry_for(clocks, cal)
    if strict and s not in arm.anchor_svs():
        raise UnknownCalibration(
            f"no measured processor cycles at S={s} for FPGA"
            f" {clocks.fpga_mhz:g} MHz / ARM {clocks.arm_mhz:g} MHz"
        )
    sw_cycles = estimate_arm_cycles(s, fl, clocks, optimized=False, calibration=cal)
    sw_opt = estimate_arm_cycles(s, fl, clocks, optimized=True, calibration=cal)

    hw_time = hw_cycles / clocks.fpga_mhz
    sw_time = sw_cycles / arm.timer_mhz
    sw_opt_time = sw_opt / arm.timer_mhz
    return CosimReport(
        directive=cfg,
        clocks=clocks,
        hw=hw,
        sw=sw,
        results_match=results_match,
        cycle_source=source,
        hw_cycles=hw_cycles,
        sw_cycles=sw_cycles,
        sw_cycles_optimized=sw_opt,
        sw_timer_mhz=arm.timer_mhz,
        hw_time_us=hw_time,
        sw_time_us=sw_time,
        sw_opt_time_us=sw_opt_time,
        cycle_speedup_plain=sw_cycles / hw_cycles,
        cycle_speedup_optimized=sw_opt / hw_cycles,
        time_speedup_plain=sw_time / hw_time,
        time_speedup_optimized=sw_opt_time / hw_time,
    )


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
    """Classify every instance with the software reference and score it.

    AC is accumulated once per dataset and the dot product runs with the
    instances as lanes, so each distance is bit-identical to a per-row
    run_software_reference call.
    """
    if dataset.feature_count != model.feature_count:
        raise DimensionError(
            f"model has {model.feature_count} features, dataset has"
            f" {dataset.feature_count}"
        )
    x = np.stack([inst.values for inst in dataset.instances])
    labels, distances, _raw = _reference_kernel(model, x, threshold)
    return AccuracyReport(
        predictions=tuple(labels.tolist()),
        distances=tuple(distances.tolist()),
        labels=dataset.labels,
    )
