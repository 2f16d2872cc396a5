"""Reference for synth's fitted estimators: one Fit per column.

The estimators as they were when every fitted column of a calibration
group (latency, BRAM, FF, LUT of a (directive, regime) synth group; plain
and optimized cycles of a clock pairing's arm group) was its own Fit, and
each figure was read through its own lookup.  explore estimated every
candidate and skipped the ones that raised a CalibrationError
(UnknownCalibration, FlMismatch, or a line not finite at S).  A
Calibration is built from a CalibrationSet's records alone, or from
records already in their checked form, with the fits' refusals.
"""

from __future__ import annotations

import math
import warnings
from operator import le

from svmsoc.errors import CalibrationError, FlMismatch, UnknownCalibration
from svmsoc.synth import (
    ANCHOR_EXACT,
    EXTRAPOLATED,
    INTERPOLATED,
    MAX_COUNT,
    PER_FEATURE_SLOPES,
    AnchorRow,
    ArmRecord,
    DirectiveConfig,
    ExploreEntry,
    PowerRecord,
    SynthesisEstimate,
    _directive_token,
    _mhz,
    clock_key,
    format_mhz,
    format_pairing,
)

_SYNTH_FIGURES = {"latency_cycles": "latency", "bram": "bram", "ff": "ff", "lut": "lut"}
_ARM_FIGURES = {
    "plain_cycles": "plain processor cycles",
    "optimized_cycles": "optimized processor cycles",
}


def _figure_label(column: str, group: tuple) -> str:
    if column in _ARM_FIGURES:
        return f"{_ARM_FIGURES[column]} for {format_pairing(*group)}"
    directive, regime = group
    return f"{_SYNTH_FIGURES[column]} for {directive} at {format_mhz(regime)} MHz"


class Fit:
    def __init__(self, feature_count, points, key):
        pts = sorted(points)
        self.feature_count = feature_count
        self.what = _figure_label(key[0], key[1:])
        self.points = dict(pts)
        self.lo, self.hi = pts[0][0], pts[-1][0]
        slope = intercept = None
        if len(pts) == 2:
            (s1, v1), (s2, v2) = pts
            slope = (v2 - v1) / (s2 - s1)
            intercept = v1 - slope * s1
        elif len(pts) > 2:
            import numpy as np

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    slope, intercept = np.polyfit(
                        [float(s) for s, _ in pts], [v for _, v in pts], 1
                    )
                except RuntimeWarning as exc:
                    raise ValueError(f"no least-squares line fits {self.what}: {exc}") from None
            slope, intercept = float(slope), float(intercept)
        self.slope, self.intercept = slope, intercept
        if slope is not None and not (math.isfinite(slope) and math.isfinite(intercept)):
            raise ValueError(f"the fitted line of {self.what} is not finite")

    def at(self, sv_count, allow_point_reuse):
        value = self.points.get(sv_count)
        if value is not None:
            return value, ANCHOR_EXACT
        lo, hi = self.lo, self.hi
        if self.slope is None:
            if allow_point_reuse:
                return self.points[lo], EXTRAPOLATED
            raise UnknownCalibration(
                f"{self.what} has a single anchor at S={lo}; scaling to"
                f" S={sv_count} has no supporting data (pass allow_point_reuse"
                " to reuse the point value)"
            )
        if len(self.points) == 2:
            v1 = self.points[lo]
            value = v1 + (self.points[hi] - v1) * (sv_count - lo) / (hi - lo)
        else:
            value = self.slope * sv_count + self.intercept
        if not math.isfinite(value):
            raise CalibrationError(f"{self.what} is not finite at S={sv_count}")
        return value, INTERPOLATED if lo < sv_count < hi else EXTRAPOLATED


class Calibration:
    """The per-column fits, DSP counts and power table of checked records.

    Every group's records share a feature count; a line that is not finite
    raises ValueError, as the set built from the same records does.
    """

    def __init__(self, records):
        synth, arm = {}, {}
        for rec in records:
            if type(rec) is AnchorRow:
                synth.setdefault((rec.directive, rec.regime_mhz), []).append(rec)
            elif type(rec) is ArmRecord:
                arm.setdefault((rec.fpga_mhz, rec.arm_mhz), []).append(rec)
        self.fits, self.dsp = {}, {}
        for groups, columns in ((synth, _SYNTH_FIGURES), (arm, _ARM_FIGURES)):
            for group, rows in groups.items():
                for column in columns:
                    key = (column, *group)
                    points = zip(
                        [r.sv_count for r in rows], [float(getattr(r, column)) for r in rows]
                    )
                    self.fits[key] = Fit(rows[0].feature_count, points, key)
                if groups is synth:
                    self.dsp[group] = {r.sv_count: r.dsp for r in rows}
        self.power = {
            (r.sv_count, r.directive): r.watts for r in records if type(r) is PowerRecord
        }


def _figure(cal, column, group, sv_count, feature_count, allow_point_reuse):
    fit = cal.fits.get((column, *group))
    if fit is None:
        raise UnknownCalibration(f"{_figure_label(column, group)} is not calibrated")
    if not (0 < sv_count <= MAX_COUNT and 0 < feature_count <= MAX_COUNT):
        raise ValueError("sv_count and feature_count must be integers in 1..2**53")
    if feature_count != fit.feature_count:
        raise FlMismatch(
            f"{fit.what} is calibrated for Fl={fit.feature_count}, not Fl={feature_count}"
        )
    return fit.at(sv_count, allow_point_reuse)


def _latency(cal, design, sv_count, feature_count, allow_point_reuse):
    try:
        value, validity = _figure(
            cal, "latency_cycles", design, sv_count, feature_count, allow_point_reuse
        )
    except FlMismatch:
        fit = cal.fits[("latency_cycles", *design)]
        a, c = PER_FEATURE_SLOPES.get(design[0], (None, None))
        if a is None or fit.slope is None or (
            abs(fit.slope - (a * (fit.feature_count + 1) + c)) >= 1e-6
        ):
            raise
        value = (a * (feature_count + 1.0) + c) * sv_count + fit.intercept
        validity = EXTRAPOLATED
    return max(0, int(round(value))), validity


def estimate_latency(sv_count, feature_count, directive, regime_mhz, *, calibration,
                     allow_point_reuse=False):
    design = (_directive_token(directive), _mhz(regime_mhz))
    latency, validity = _latency(calibration, design, sv_count, feature_count, allow_point_reuse)
    return SynthesisEstimate(validity=validity, latency_cycles=latency)


def _design_estimate(cal, design, sv_count, feature_count, allow_point_reuse):
    args = (sv_count, feature_count, allow_point_reuse)
    latency, validity = _latency(cal, design, *args)
    bram, _ = _figure(cal, "bram", design, *args)
    ff, _ = _figure(cal, "ff", design, *args)
    lut, _ = _figure(cal, "lut", design, *args)
    dsps = cal.dsp[design]
    dsp = dsps.get(sv_count)
    if dsp is None:
        distinct = set(dsps.values())
        dsp = round(sum(distinct) / len(distinct))
    return SynthesisEstimate(
        validity=validity,
        latency_cycles=latency,
        bram=max(0.0, bram),
        dsp=dsp,
        ff=max(0, int(round(ff))),
        lut=max(0, int(round(lut))),
    )


def estimate_design(sv_count, feature_count, directive, regime_mhz, *, calibration,
                    allow_point_reuse=False):
    design = (_directive_token(directive), _mhz(regime_mhz))
    return _design_estimate(calibration, design, sv_count, feature_count, allow_point_reuse)


def estimate_arm_cycles(sv_count, feature_count, clocks, optimized=False, *, calibration,
                        allow_point_reuse=False):
    column = "optimized_cycles" if optimized else "plain_cycles"
    value, _ = _figure(
        calibration, column, clock_key(clocks), sv_count, feature_count, allow_point_reuse
    )
    return max(0, int(round(value)))


def explore(sv_count, feature_count, regime_mhz, *, calibration):
    cal = calibration
    regime = _mhz(regime_mhz)
    candidates = []
    for token, mhz in cal.dsp:
        if mhz != regime:
            continue
        try:
            est = _design_estimate(cal, (token, mhz), sv_count, feature_count, False)
        except CalibrationError:
            continue
        candidates.append(((est.latency_cycles, est.dsp, est.lut, est.ff, est.bram), token, est))
    if not candidates:
        raise UnknownCalibration(
            f"no directive calibrated at {format_mhz(regime)} MHz can estimate"
            f" S={sv_count}, Fl={feature_count}"
        )
    candidates.sort()
    front = []
    for cost, token, est in candidates:
        if not any(other != cost and all(map(le, other, cost)) for other, _, _ in front):
            front.append((cost, token, est))
    front.sort(key=lambda c: (c[0][0], c[1]))
    return [
        ExploreEntry(DirectiveConfig.parse(token), est, cal.power.get((sv_count, token)))
        for _, token, est in front
    ]
