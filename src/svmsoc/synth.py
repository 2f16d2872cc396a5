"""Synthesis cost models calibrated from vendor-tool and board results.

Latency and resource figures come from high-level-synthesis runs of the
streaming classifier at three shipped sizes (S=248 and S=346 with 27
features at a 100 MHz clock, S=61 with 27 features at 250 MHz), one run
per optimization directive.  Between anchors the models are affine in the
support-vector count S; every estimate carries a validity tag saying
whether it hit an anchor exactly, interpolated between anchors, or
extrapolated beyond them.

Directives with a single anchor have no S-dependence information, so
scaling them to another S is refused unless explicitly forced.  Latency
for the two directives whose inner loop runs Fl+1 iterations per support
vector (the streamed arrays carry one spare slot) decomposes as
slope = a*(Fl+1) + c, which lets those two generalize across feature
counts; everything else is pinned to its calibrated Fl.

Host-processor cycle counts and board power draws are calibrated the same
way: exact lookups at measured points, affine in S where two points
exist, refusal elsewhere.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    CalibrationError,
    FlMismatch,
    InsufficientAnchors,
    UnknownCalibration,
    UnknownDesign,
)

__all__ = [
    "ANCHOR_EXACT",
    "INTERPOLATED",
    "EXTRAPOLATED",
    "DirectiveConfig",
    "AnchorRow",
    "AffineFit",
    "PointFit",
    "LatencyEntry",
    "ResourceEntry",
    "ArmCycleEntry",
    "CalibrationSet",
    "SynthesisEstimate",
    "ExploreEntry",
    "SHIPPED_ANCHORS",
    "PER_FEATURE_SLOPES",
    "fit_calibration",
    "default_calibration",
    "estimate_latency",
    "estimate_resources",
    "estimate_design",
    "estimate_arm_cycles",
    "estimate_power",
    "explore",
    "stream_word_count",
    "clock_key",
    "parse_anchor_csv",
    "save_calibration",
    "load_calibration",
]

# validity tags, ordered best to worst
ANCHOR_EXACT = "anchor_exact"
INTERPOLATED = "interpolated"
EXTRAPOLATED = "extrapolated"
_VALIDITY_RANK = {ANCHOR_EXACT: 0, INTERPOLATED: 1, EXTRAPOLATED: 2}


def _mhz(value) -> float:
    v = round(float(value), 2)
    if v <= 0:
        raise ValueError(f"clock must be positive, got {value!r}")
    return v


def _fmt_mhz(value: float) -> str:
    return f"{value:g}"


def _worst(*tags: str) -> str:
    return max(tags, key=_VALIDITY_RANK.__getitem__)


# --------------------------------------------------------------------------
# directives

_SCOPES = {
    "interface_only": (),
    "array_resource": ("bram", "lut"),
    "pipeline": ("inner", "most", "all"),
    "unroll": ("inner", "most", "partial"),
    "array_partition": ("block", "cyclic", "complete"),
}


@dataclass(frozen=True)
class DirectiveConfig:
    """One synthesis optimization directive.

    kind is one of interface_only, array_resource, pipeline, unroll, or
    array_partition; scope refines it (e.g. which loop level, which
    partition style) and factor holds the unroll/partition factor where
    one applies.
    """

    kind: str
    scope: str | None = None
    factor: int | None = None

    def __post_init__(self):
        if self.kind not in _SCOPES:
            raise ValueError(f"unknown directive kind {self.kind!r}")
        scopes = _SCOPES[self.kind]
        if scopes and self.scope not in scopes:
            raise ValueError(f"{self.kind} scope must be one of {scopes}")
        if not scopes and self.scope is not None:
            raise ValueError(f"{self.kind} takes no scope")
        needs_factor = (self.kind, self.scope) in (
            ("unroll", "partial"),
            ("array_partition", "block"),
            ("array_partition", "cyclic"),
        )
        if needs_factor:
            if self.factor is None or self.factor < 2:
                raise ValueError(f"{self.name_prefix()} needs a factor >= 2")
        elif self.factor is not None:
            raise ValueError(f"{self.name_prefix()} takes no factor")

    def name_prefix(self) -> str:
        if self.kind == "interface_only":
            return "interface-only"
        if self.kind == "array_resource":
            return f"resource-{self.scope}" if self.scope else "resource"
        if self.kind == "pipeline":
            return f"pipeline-{self.scope}"
        if self.kind == "unroll":
            return "unroll-partial" if self.scope == "partial" else f"unroll-{self.scope}"
        return (
            "partition-complete"
            if self.scope == "complete"
            else f"partition-{self.scope}"
        )

    @property
    def name(self) -> str:
        prefix = self.name_prefix()
        return prefix if self.factor is None else f"{prefix}-{self.factor}"

    def __str__(self) -> str:
        return self.name

    @classmethod
    def parse(cls, token: str) -> "DirectiveConfig":
        """Build a DirectiveConfig from names like pipeline-inner or cyclic_8.

        Underscores and hyphens are interchangeable; the array- prefix on
        partition/resource names and bare partition styles are accepted.
        """
        t = token.strip().lower().replace("_", "-")
        for prefix in ("array-partition-", "array-resource-"):
            if t.startswith(prefix):
                t = t[len("array-") :]
        aliases = {
            "interface": "interface-only",
            "interfaces": "interface-only",
            "baseline": "interface-only",
            "complete": "partition-complete",
        }
        t = aliases.get(t, t)
        parts = t.split("-")
        if parts[0] in ("cyclic", "block") and len(parts) == 2:
            parts = ["partition"] + parts
            t = "-".join(parts)
        if t == "interface-only":
            return cls("interface_only")
        if len(parts) == 2 and parts[0] == "resource" and parts[1] in ("bram", "lut"):
            return cls("array_resource", parts[1])
        if len(parts) == 2 and parts[0] == "pipeline" and parts[1] in ("inner", "most", "all"):
            return cls("pipeline", parts[1])
        if len(parts) == 2 and parts[0] == "unroll" and parts[1] in ("inner", "most"):
            return cls("unroll", parts[1])
        if len(parts) == 3 and parts[0] == "unroll" and parts[1] == "partial":
            return cls("unroll", "partial", _parse_factor(parts[2], token))
        if t == "partition-complete":
            return cls("array_partition", "complete")
        if len(parts) == 3 and parts[0] == "partition" and parts[1] in ("block", "cyclic"):
            return cls("array_partition", parts[1], _parse_factor(parts[2], token))
        raise ValueError(f"unknown directive {token!r}")


def _parse_factor(text: str, token: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad factor in directive {token!r}") from None


def _directive_token(directive) -> str:
    if isinstance(directive, DirectiveConfig):
        return directive.name
    return DirectiveConfig.parse(str(directive)).name


# --------------------------------------------------------------------------
# shipped anchor data

class AnchorRow(NamedTuple):
    sv_count: int
    feature_count: int
    directive: str
    regime_mhz: float
    latency_cycles: int
    bram: float
    dsp: int
    ff: int
    lut: int


# Vendor-tool synthesis results for the shipped classifier sizes.
# Columns: S, Fl, directive, clock MHz, latency, BRAM, DSP, FF, LUT.
SHIPPED_ANCHORS: tuple[AnchorRow, ...] = tuple(
    AnchorRow(*row)
    for row in [
        # S=248, Fl=27, 100 MHz
        (248, 27, "interface-only", 100.0, 82460, 17, 5, 1265, 2417),
        (248, 27, "resource-bram", 100.0, 82460, 19, 5, 1137, 2376),
        (248, 27, "resource-lut", 100.0, 82460, 0, 5, 1393, 6015),
        (248, 27, "pipeline-inner", 100.0, 14138, 19, 5, 1251, 2477),
        (248, 27, "pipeline-most", 100.0, 14129, 19, 10, 2622, 3999),
        (248, 27, "pipeline-all", 100.0, 14129, 30, 58, 5460, 9516),
        (248, 27, "unroll-inner", 100.0, 9876, 28, 135, 13080, 28039),
        (248, 27, "unroll-most", 100.0, 8366, 29, 135, 13226, 49625),
        (248, 27, "unroll-partial-2", 100.0, 78959, 19, 5, 1266, 2645),
        (248, 27, "partition-cyclic-2", 100.0, 13858, 22, 10, 2105, 3454),
        (248, 27, "partition-cyclic-8", 100.0, 13827, 17, 10, 6925, 10103),
        (248, 27, "partition-cyclic-16", 100.0, 9336, 16, 20, 11113, 12835),
        (248, 27, "partition-block-2", 100.0, 42217, 22, 7, 10916, 12821),
        (248, 27, "partition-complete", 100.0, 23512, 27, 5, 23056, 10218),
        # S=346, Fl=27, 100 MHz
        (346, 27, "interface-only", 100.0, 114898, 33, 5, 1271, 2429),
        (346, 27, "pipeline-inner", 100.0, 19626, 35, 5, 1258, 2465),
        (346, 27, "pipeline-most", 100.0, 19617, 35, 10, 2629, 4048),
        (346, 27, "pipeline-all", 100.0, 19617, 30, 58, 5467, 9550),
        (346, 27, "unroll-inner", 100.0, 13698, 28, 135, 13919, 29975),
        (346, 27, "unroll-most", 100.0, 11600, 29, 135, 13793, 63328),
        (346, 27, "partition-block-2", 100.0, 59125, 38, 7, 11004, 12921),
        (346, 27, "partition-cyclic-2", 100.0, 19248, 38, 10, 2117, 3503),
        (346, 27, "partition-cyclic-8", 100.0, 19215, 40, 10, 6490, 10027),
        (346, 27, "partition-cyclic-16", 100.0, 12960, 28, 20, 11123, 12938),
        (346, 27, "partition-complete", 100.0, 32724, 27, 5, 29334, 11276),
        # S=61, Fl=27, 250 MHz
        (61, 27, "interface-only", 250.0, 40885, 5, 5, 1656, 2548),
        (61, 27, "pipeline-inner", 250.0, 3830, 7, 5, 1666, 2511),
        (61, 27, "pipeline-all", 250.0, 3822, 30, 105, 13854, 16195),
        (61, 27, "unroll-inner", 250.0, 3343, 29, 135, 20626, 26393),
        (61, 27, "unroll-most", 250.0, 2653, 27, 135, 19429, 45233),
        (61, 27, "partition-cyclic-16", 250.0, 4483, 27, 19, 15447, 16498),
    ]
)

# Latency-slope decomposition slope = a*(Fl+1) + c for directives whose
# per-SV cost is dominated by the feature loop (trip count Fl+1 because
# the streamed arrays are sized one past the feature count).
PER_FEATURE_SLOPES: dict[str, tuple[int, int]] = {
    "interface-only": (11, 23),
    "pipeline-inner": (2, 0),
}

# Bare-metal classifier cycle counts on the host core.  Counts for the
# 100/666.67 pairing are ticks of the 100 MHz platform timer; the 250 MHz
# pairings are core cycle-counter readings for the small model.
SHIPPED_ARM_ANCHORS: dict[tuple[float, float], dict] = {
    (100.0, 666.67): {
        "feature_count": 27,
        "timer_mhz": 100.0,
        "plain": ((61, 77367), (248, 309378)),
        "optimized": ((61, 22398), (248, 90585)),
    },
    (250.0, 250.0): {
        "feature_count": 27,
        "timer_mhz": 250.0,
        "plain": ((61, 77367),),
        "optimized": ((61, 22398),),
    },
    (250.0, 666.67): {
        "feature_count": 27,
        "timer_mhz": 666.67,
        "plain": ((61, 28968),),
        "optimized": ((61, 8431),),
    },
}

# End-to-end accelerator cycle counts measured in co-simulation,
# keyed by (S, Fl, directive, (fpga_mhz, arm_mhz)).
SHIPPED_HW_CYCLES: dict[tuple[int, int, str, tuple[float, float]], int] = {
    (61, 27, "pipeline-inner", (250.0, 250.0)): 3693,
    (61, 27, "unroll-most", (250.0, 250.0)): 3690,
    (61, 27, "pipeline-inner", (250.0, 666.67)): 2815,
}

# Board power draw in watts per implemented (model, design) pair.
SHIPPED_POWER_W: dict[tuple[str, int], float] = {
    ("model1", 1): 1.756,
    ("model1", 2): 1.824,
    ("model1", 3): 1.851,
    ("model2", 1): 1.758,
    ("model2", 2): 2.125,
    ("model2", 3): 1.842,
    ("models", 1): 1.686,
    ("models", 2): 1.766,
}

# Which directive realizes each implemented board design, and which shipped
# model size maps to which model id.
MODEL_ID_BY_SV = {248: "model1", 346: "model2", 61: "models"}
IMPLEMENTED_DESIGNS: dict[tuple[str, int], str] = {
    ("model1", 1): "pipeline-inner",
    ("model1", 2): "unroll-most",
    ("model1", 3): "partition-cyclic-16",
    ("model2", 1): "pipeline-inner",
    ("model2", 2): "unroll-inner",
    ("model2", 3): "partition-cyclic-16",
    ("models", 1): "pipeline-inner",
    ("models", 2): "unroll-most",
}


def stream_word_count(sv_count: int, feature_count: int) -> int:
    """Words per classification frame: S*Fl + 1 + S + Fl."""
    return sv_count * feature_count + 1 + sv_count + feature_count


# --------------------------------------------------------------------------
# fits

@dataclass(frozen=True)
class AffineFit:
    """value(S) = slope*S + intercept, with the anchor points kept around.

    Two-point fits evaluate through the anchors directly so the anchors
    reproduce exactly and interpolation stays free of slope round-off.
    """

    slope: float
    intercept: float
    anchors: tuple[tuple[int, float], ...]

    @property
    def s_min(self) -> int:
        return self.anchors[0][0]

    @property
    def s_max(self) -> int:
        return self.anchors[-1][0]

    def value_at(self, sv_count: int) -> float:
        if len(self.anchors) == 2:
            (s1, v1), (s2, v2) = self.anchors
            return v1 + (v2 - v1) * (sv_count - s1) / (s2 - s1)
        return self.slope * sv_count + self.intercept

    def validity_at(self, sv_count: int) -> str:
        if any(s == sv_count for s, _ in self.anchors):
            return ANCHOR_EXACT
        return INTERPOLATED if self.s_min <= sv_count <= self.s_max else EXTRAPOLATED


@dataclass(frozen=True)
class PointFit:
    """A single calibration point; carries no S-dependence at all."""

    sv_count: int
    value: float


Fit = Union[AffineFit, PointFit]


def _fit_points(points: Sequence[tuple[int, float]]) -> Fit:
    pts = sorted(points)
    if len(pts) == 1:
        return PointFit(pts[0][0], float(pts[0][1]))
    xs = np.array([s for s, _ in pts], dtype=float)
    ys = np.array([v for _, v in pts], dtype=float)
    if len(pts) == 2:
        slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        intercept = ys[0] - slope * xs[0]
    else:
        slope, intercept = np.polyfit(xs, ys, 1)
    return AffineFit(
        float(slope), float(intercept), tuple((int(s), float(v)) for s, v in pts)
    )


def _eval_fit(
    fit: Fit, sv_count: int, what: str, allow_point_reuse: bool
) -> tuple[float, str]:
    if isinstance(fit, PointFit):
        if sv_count == fit.sv_count:
            return fit.value, ANCHOR_EXACT
        if allow_point_reuse:
            return fit.value, EXTRAPOLATED
        raise UnknownCalibration(
            f"{what} has a single anchor at S={fit.sv_count}; scaling to"
            f" S={sv_count} has no supporting data (pass allow_point_reuse"
            " to reuse the point value)"
        )
    return fit.value_at(sv_count), fit.validity_at(sv_count)


# --------------------------------------------------------------------------
# calibration set

@dataclass(frozen=True)
class LatencyEntry:
    feature_count: int
    fit: Fit
    anchors: dict[int, int]  # S -> measured latency
    per_feature: tuple[int, int] | None  # (a, c) with slope = a*(Fl+1)+c


@dataclass(frozen=True)
class ResourceEntry:
    feature_count: int
    dsp: int
    bram: Fit
    ff: Fit
    lut: Fit
    anchors: dict[int, tuple[float, int, int, int]]  # S -> (bram, dsp, ff, lut)


@dataclass(frozen=True)
class ArmCycleEntry:
    feature_count: int
    timer_mhz: float  # clock the counts are expressed in
    plain: Fit
    optimized: Fit

    def anchor_svs(self) -> frozenset[int]:
        fits = (self.plain, self.optimized)
        svs: set[int] = set()
        for f in fits:
            if isinstance(f, PointFit):
                svs.add(f.sv_count)
            else:
                svs.update(s for s, _ in f.anchors)
        return frozenset(svs)


@dataclass(frozen=True)
class CalibrationSet:
    """Everything the estimators know, keyed by directive and clock."""

    latency: dict[tuple[str, float], LatencyEntry]
    resources: dict[tuple[str, float], ResourceEntry]
    arm: dict[tuple[float, float], ArmCycleEntry]
    hw_cycles: dict[tuple[int, int, str, tuple[float, float]], int]
    power: dict[tuple[str, int], float]

    def regimes(self) -> tuple[float, ...]:
        return tuple(sorted({r for _, r in self.latency}))

    def directives_for(self, regime_mhz: float) -> tuple[str, ...]:
        r = _mhz(regime_mhz)
        return tuple(sorted(d for d, reg in self.latency if reg == r))


def fit_calibration(
    rows: Sequence[AnchorRow | tuple],
    require: Sequence[tuple[str, float]] = (),
) -> CalibrationSet:
    """Fit latency and resource models from a synthesis anchor table.

    Each (directive, regime) group becomes one entry: a single row pins a
    point, two rows an exact affine in S, three or more a least-squares
    line.  Rows in a group must share a feature count.  require lists
    (directive, regime) pairs that must be present; a missing one raises
    InsufficientAnchors.
    """
    anchors = [AnchorRow(*r) for r in rows]
    if not anchors and require:
        missing = ", ".join(f"{d}@{_fmt_mhz(_mhz(r))}" for d, r in require)
        raise InsufficientAnchors(f"no anchor rows at all (required: {missing})")
    groups: dict[tuple[str, float], dict[int, AnchorRow]] = {}
    for row in anchors:
        if row.sv_count < 1 or row.feature_count < 1:
            raise ValueError(f"bad anchor sizes in {row}")
        if row.latency_cycles < 0 or min(row.bram, row.dsp, row.ff, row.lut) < 0:
            raise ValueError(f"negative measurement in {row}")
        key = (_directive_token(row.directive), _mhz(row.regime_mhz))
        group = groups.setdefault(key, {})
        prev = group.get(row.sv_count)
        if prev is not None:
            if prev != row._replace(directive=prev.directive):
                raise ValueError(
                    f"conflicting anchors for {key[0]} at {_fmt_mhz(key[1])} MHz,"
                    f" S={row.sv_count}"
                )
            continue  # exact duplicate row, ignore
        group[row.sv_count] = row

    for directive, regime in require:
        key = (_directive_token(directive), _mhz(regime))
        if key not in groups:
            raise InsufficientAnchors(
                f"no anchors for {key[0]} at {_fmt_mhz(key[1])} MHz"
            )

    latency: dict[tuple[str, float], LatencyEntry] = {}
    resources: dict[tuple[str, float], ResourceEntry] = {}
    for key, group in sorted(groups.items()):
        token, _regime = key
        rows_by_s = [group[s] for s in sorted(group)]
        fls = {r.feature_count for r in rows_by_s}
        if len(fls) != 1:
            raise ValueError(
                f"anchors for {token} at {_fmt_mhz(key[1])} MHz mix feature"
                f" counts {sorted(fls)}"
            )
        fl = fls.pop()
        lat_fit = _fit_points([(r.sv_count, float(r.latency_cycles)) for r in rows_by_s])
        per_feature = None
        terms = PER_FEATURE_SLOPES.get(token)
        if terms is not None and isinstance(lat_fit, AffineFit):
            a, c = terms
            if abs(lat_fit.slope - (a * (fl + 1) + c)) < 1e-6:
                per_feature = terms
        latency[key] = LatencyEntry(
            feature_count=fl,
            fit=lat_fit,
            anchors={r.sv_count: r.latency_cycles for r in rows_by_s},
            per_feature=per_feature,
        )
        dsps = {r.dsp for r in rows_by_s}
        dsp = rows_by_s[0].dsp if len(dsps) == 1 else int(round(float(np.mean(list(dsps)))))
        resources[key] = ResourceEntry(
            feature_count=fl,
            dsp=dsp,
            bram=_fit_points([(r.sv_count, float(r.bram)) for r in rows_by_s]),
            ff=_fit_points([(r.sv_count, float(r.ff)) for r in rows_by_s]),
            lut=_fit_points([(r.sv_count, float(r.lut)) for r in rows_by_s]),
            anchors={
                r.sv_count: (float(r.bram), r.dsp, r.ff, r.lut) for r in rows_by_s
            },
        )
    return CalibrationSet(
        latency=latency, resources=resources, arm={}, hw_cycles={}, power={}
    )


def _build_arm_entries(table: dict) -> dict[tuple[float, float], ArmCycleEntry]:
    out = {}
    for pair, data in table.items():
        out[clock_key(pair)] = ArmCycleEntry(
            feature_count=int(data["feature_count"]),
            timer_mhz=_mhz(data["timer_mhz"]),
            plain=_fit_points([(int(s), float(v)) for s, v in data["plain"]]),
            optimized=_fit_points([(int(s), float(v)) for s, v in data["optimized"]]),
        )
    return out


@lru_cache(maxsize=1)
def default_calibration() -> CalibrationSet:
    """The calibration shipped with the package (all measured anchors)."""
    base = fit_calibration(SHIPPED_ANCHORS)
    return dataclasses.replace(
        base,
        arm=_build_arm_entries(SHIPPED_ARM_ANCHORS),
        hw_cycles=dict(SHIPPED_HW_CYCLES),
        power=dict(SHIPPED_POWER_W),
    )


# --------------------------------------------------------------------------
# estimates

@dataclass(frozen=True)
class SynthesisEstimate:
    """Latency and/or resource prediction plus how trustworthy it is.

    validity is anchor_exact when every reported figure sits on a
    measured anchor, interpolated when S lies between anchors of an
    affine fit, extrapolated beyond them or across feature counts.
    """

    validity: str
    latency_cycles: int | None = None
    throughput_cycles: int | None = None
    bram: float | None = None
    dsp: int | None = None
    ff: int | None = None
    lut: int | None = None


def _latency_entry(calibration, directive, regime_mhz):
    cal = calibration if calibration is not None else default_calibration()
    token = _directive_token(directive)
    key = (token, _mhz(regime_mhz))
    entry = cal.latency.get(key)
    if entry is None:
        raise UnknownCalibration(
            f"no latency calibration for {token} at {_fmt_mhz(key[1])} MHz"
        )
    return cal, token, key, entry


def estimate_latency(
    sv_count: int,
    feature_count: int,
    directive,
    regime_mhz,
    *,
    calibration: CalibrationSet | None = None,
    allow_point_reuse: bool = False,
) -> SynthesisEstimate:
    """Predict classifier latency in clock cycles for one directive.

    At a calibrated anchor the measured value comes back exactly; between
    anchors the affine fit applies; a feature count other than the
    calibrated one works only for directives with a per-feature slope
    decomposition and is always tagged extrapolated.
    """
    _cal, token, key, entry = _latency_entry(calibration, directive, regime_mhz)
    if sv_count < 1 or feature_count < 1:
        raise ValueError("sv_count and feature_count must be >= 1")
    if feature_count == entry.feature_count:
        exact = entry.anchors.get(sv_count)
        if exact is not None:
            return SynthesisEstimate(
                validity=ANCHOR_EXACT,
                latency_cycles=exact,
                throughput_cycles=exact + 1,
            )
        what = f"latency for {token} at {_fmt_mhz(key[1])} MHz"
        value, validity = _eval_fit(entry.fit, sv_count, what, allow_point_reuse)
    elif entry.per_feature is not None and isinstance(entry.fit, AffineFit):
        a, c = entry.per_feature
        value = (a * (feature_count + 1) + c) * sv_count + entry.fit.intercept
        validity = EXTRAPOLATED
    else:
        raise FlMismatch(
            f"{token} at {_fmt_mhz(key[1])} MHz is calibrated for"
            f" Fl={entry.feature_count}, not Fl={feature_count}"
        )
    cycles = max(0, int(round(value)))
    return SynthesisEstimate(
        validity=validity, latency_cycles=cycles, throughput_cycles=cycles + 1
    )


def estimate_resources(
    sv_count: int,
    feature_count: int,
    directive,
    regime_mhz,
    *,
    calibration: CalibrationSet | None = None,
    allow_point_reuse: bool = False,
) -> SynthesisEstimate:
    """Predict BRAM/DSP/FF/LUT use for one directive.

    Resource models never bridge feature counts: a mismatched Fl raises
    FlMismatch.  DSP count is constant per (directive, regime); the other
    three are affine in S like latency.
    """
    cal = calibration if calibration is not None else default_calibration()
    token = _directive_token(directive)
    key = (token, _mhz(regime_mhz))
    entry = cal.resources.get(key)
    if entry is None:
        raise UnknownCalibration(
            f"no resource calibration for {token} at {_fmt_mhz(key[1])} MHz"
        )
    if sv_count < 1 or feature_count < 1:
        raise ValueError("sv_count and feature_count must be >= 1")
    if feature_count != entry.feature_count:
        raise FlMismatch(
            f"{token} at {_fmt_mhz(key[1])} MHz resources are calibrated for"
            f" Fl={entry.feature_count}, not Fl={feature_count}"
        )
    exact = entry.anchors.get(sv_count)
    if exact is not None:
        bram, dsp, ff, lut = exact
        return SynthesisEstimate(
            validity=ANCHOR_EXACT, bram=bram, dsp=dsp, ff=ff, lut=lut
        )
    what = f"resources for {token} at {_fmt_mhz(key[1])} MHz"
    bram, v1 = _eval_fit(entry.bram, sv_count, what, allow_point_reuse)
    ff, v2 = _eval_fit(entry.ff, sv_count, what, allow_point_reuse)
    lut, v3 = _eval_fit(entry.lut, sv_count, what, allow_point_reuse)
    return SynthesisEstimate(
        validity=_worst(v1, v2, v3),
        bram=max(0.0, float(bram)),
        dsp=entry.dsp,
        ff=max(0, int(round(ff))),
        lut=max(0, int(round(lut))),
    )


def estimate_design(
    sv_count: int,
    feature_count: int,
    directive,
    regime_mhz,
    *,
    calibration: CalibrationSet | None = None,
    allow_point_reuse: bool = False,
) -> SynthesisEstimate:
    """Latency and resources together, tagged with the worse validity."""
    lat = estimate_latency(
        sv_count,
        feature_count,
        directive,
        regime_mhz,
        calibration=calibration,
        allow_point_reuse=allow_point_reuse,
    )
    res = estimate_resources(
        sv_count,
        feature_count,
        directive,
        regime_mhz,
        calibration=calibration,
        allow_point_reuse=allow_point_reuse,
    )
    return SynthesisEstimate(
        validity=_worst(lat.validity, res.validity),
        latency_cycles=lat.latency_cycles,
        throughput_cycles=lat.throughput_cycles,
        bram=res.bram,
        dsp=res.dsp,
        ff=res.ff,
        lut=res.lut,
    )


def clock_key(clocks) -> tuple[float, float]:
    """The (FPGA MHz, ARM MHz) calibration key of a clock pairing.

    clocks is a ClockPair or an (fpga, arm) pair; each clock is rounded to
    0.01 MHz, so 666.666 and 666.67 name the same pairing.
    """
    if hasattr(clocks, "fpga_mhz"):
        return _mhz(clocks.fpga_mhz), _mhz(clocks.arm_mhz)
    fpga, arm = clocks
    return _mhz(fpga), _mhz(arm)


def arm_entry_for(clocks, calibration: CalibrationSet | None = None) -> ArmCycleEntry:
    cal = calibration if calibration is not None else default_calibration()
    key = clock_key(clocks)
    entry = cal.arm.get(key)
    if entry is None:
        raise UnknownCalibration(
            f"no processor-cycle calibration for the FPGA {_fmt_mhz(key[0])} MHz /"
            f" ARM {_fmt_mhz(key[1])} MHz pairing"
        )
    return entry


def estimate_arm_cycles(
    sv_count: int,
    feature_count: int,
    clocks,
    optimized: bool = False,
    *,
    calibration: CalibrationSet | None = None,
    allow_point_reuse: bool = False,
) -> int:
    """Predict the software classifier's cycle count for one clock pairing.

    Counts are ticks of the pairing's calibrated timer (see
    ArmCycleEntry.timer_mhz).  Affine in S where two measurements exist;
    single-measurement pairings only reproduce their own S.
    """
    entry = arm_entry_for(clocks, calibration)
    if feature_count != entry.feature_count:
        raise FlMismatch(
            f"processor cycles are calibrated for Fl={entry.feature_count},"
            f" not Fl={feature_count}"
        )
    fit = entry.optimized if optimized else entry.plain
    kind = "optimized" if optimized else "plain"
    key = clock_key(clocks)
    what = (
        f"{kind} processor cycles for FPGA {_fmt_mhz(key[0])} MHz /"
        f" ARM {_fmt_mhz(key[1])} MHz"
    )
    value, _validity = _eval_fit(fit, sv_count, what, allow_point_reuse)
    return max(0, int(round(value)))


def _model_id(model_id) -> str:
    t = str(model_id).strip().lower().replace(" ", "").replace("-", "").replace("_", "")
    if t in ("1", "model1", "m1"):
        return "model1"
    if t in ("2", "model2", "m2"):
        return "model2"
    if t in ("s", "models", "ms"):
        return "models"
    return t


def estimate_power(
    model_id, design_id: int, *, calibration: CalibrationSet | None = None
) -> float:
    """Board power draw in watts for an implemented (model, design) pair."""
    cal = calibration if calibration is not None else default_calibration()
    key = (_model_id(model_id), int(design_id))
    try:
        return cal.power[key]
    except KeyError:
        raise UnknownDesign(
            f"no power measurement for ({model_id}, design {design_id})"
        ) from None


def design_for(sv_count: int, directive) -> tuple[str, int] | None:
    """Map (S, directive) to an implemented (model_id, design_id), if any."""
    model = MODEL_ID_BY_SV.get(sv_count)
    if model is None:
        return None
    token = _directive_token(directive)
    for (m, design), d in IMPLEMENTED_DESIGNS.items():
        if m == model and d == token:
            return m, design
    return None


# --------------------------------------------------------------------------
# design-space exploration

@dataclass(frozen=True)
class ExploreEntry:
    directive: DirectiveConfig
    estimate: SynthesisEstimate
    power_w: float | None


def _cost_tuple(est: SynthesisEstimate):
    return (est.latency_cycles, est.dsp, est.lut, est.ff, est.bram)


def _dominates(a: SynthesisEstimate, b: SynthesisEstimate) -> bool:
    ca, cb = _cost_tuple(a), _cost_tuple(b)
    return all(x <= y for x, y in zip(ca, cb)) and any(x < y for x, y in zip(ca, cb))


def explore(
    sv_count: int,
    feature_count: int,
    regime_mhz,
    *,
    calibration: CalibrationSet | None = None,
    directives: Sequence | None = None,
) -> list[ExploreEntry]:
    """Pareto front over (latency, DSP, LUT, FF, BRAM), all minimized.

    Candidates are every directive calibrated for the regime (or the
    given subset).  Directives whose calibration cannot produce a full
    estimate at this (S, Fl), e.g. single-anchor entries at a different
    S, are skipped.  The front comes back sorted by latency, ties broken
    by directive name.
    """
    cal = calibration if calibration is not None else default_calibration()
    regime = _mhz(regime_mhz)
    if directives is None:
        tokens = cal.directives_for(regime)
    else:
        tokens = tuple(_directive_token(d) for d in directives)
    candidates: list[ExploreEntry] = []
    for token in tokens:
        try:
            est = estimate_design(
                sv_count, feature_count, token, regime, calibration=cal
            )
        except (UnknownCalibration, FlMismatch):
            continue
        pair = design_for(sv_count, token)
        watts = cal.power.get(pair) if pair is not None else None
        candidates.append(
            ExploreEntry(DirectiveConfig.parse(token), est, watts)
        )
    if not candidates:
        raise UnknownCalibration(
            f"no directive calibrated at {_fmt_mhz(regime)} MHz can estimate"
            f" S={sv_count}, Fl={feature_count}"
        )
    front = [
        c
        for c in candidates
        if not any(
            other is not c and _dominates(other.estimate, c.estimate)
            for other in candidates
        )
    ]
    front.sort(key=lambda e: (e.estimate.latency_cycles, e.directive.name))
    return front


# --------------------------------------------------------------------------
# calibration persistence

_CSV_HEADER = "sv_count,feature_count,directive,regime_mhz,latency_cycles,bram,dsp,ff,lut"


def parse_anchor_csv(text: str) -> list[AnchorRow]:
    """Parse a synthesis anchor table (the columns of _CSV_HEADER).

    A header row is optional.  Raises ValueError on malformed rows.
    """
    rows: list[AnchorRow] = []
    for lineno0, line in enumerate(text.splitlines()):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if lineno0 == 0 and not cells[0].lstrip("-").isdigit():
            continue  # header row
        if len(cells) != 9:
            raise ValueError(
                f"anchor csv line {lineno0 + 1}: expected 9 columns, got {len(cells)}"
            )
        try:
            rows.append(
                AnchorRow(
                    sv_count=int(cells[0]),
                    feature_count=int(cells[1]),
                    directive=_directive_token(cells[2]),
                    regime_mhz=_mhz(cells[3]),
                    latency_cycles=int(cells[4]),
                    bram=float(cells[5]),
                    dsp=int(cells[6]),
                    ff=int(cells[7]),
                    lut=int(cells[8]),
                )
            )
        except ValueError as exc:
            raise ValueError(f"anchor csv line {lineno0 + 1}: {exc}") from None
    if not rows:
        raise ValueError("anchor csv has no data rows")
    return rows


def _fit_to_json(fit: Fit):
    if isinstance(fit, PointFit):
        return {"kind": "point", "s": fit.sv_count, "value": fit.value}
    return {
        "kind": "affine",
        "slope": fit.slope,
        "intercept": fit.intercept,
        "anchors": [[s, v] for s, v in fit.anchors],
    }


def _fit_from_json(obj) -> Fit:
    if obj["kind"] == "point":
        return PointFit(int(obj["s"]), float(obj["value"]))
    if obj["kind"] == "affine":
        anchors = tuple((int(s), float(v)) for s, v in obj["anchors"])
        if not anchors:
            raise CalibrationError("calibration affine fit has no anchors")
        return AffineFit(float(obj["slope"]), float(obj["intercept"]), anchors)
    raise CalibrationError(f"unknown fit kind {obj.get('kind')!r}")


def save_calibration(calibration: CalibrationSet) -> str:
    """Serialize a CalibrationSet to deterministic JSON text."""
    doc = {
        "version": 1,
        "latency": {
            f"{d}@{_fmt_mhz(r)}": {
                "feature_count": e.feature_count,
                "fit": _fit_to_json(e.fit),
                "anchors": {str(s): v for s, v in sorted(e.anchors.items())},
                "per_feature": list(e.per_feature) if e.per_feature else None,
            }
            for (d, r), e in calibration.latency.items()
        },
        "resources": {
            f"{d}@{_fmt_mhz(r)}": {
                "feature_count": e.feature_count,
                "dsp": e.dsp,
                "bram": _fit_to_json(e.bram),
                "ff": _fit_to_json(e.ff),
                "lut": _fit_to_json(e.lut),
                "anchors": {
                    str(s): list(vals) for s, vals in sorted(e.anchors.items())
                },
            }
            for (d, r), e in calibration.resources.items()
        },
        "arm": {
            f"{_fmt_mhz(f)}/{_fmt_mhz(a)}": {
                "feature_count": e.feature_count,
                "timer_mhz": e.timer_mhz,
                "plain": _fit_to_json(e.plain),
                "optimized": _fit_to_json(e.optimized),
            }
            for (f, a), e in calibration.arm.items()
        },
        "hw_cycles": [
            [s, fl, d, f, a, cycles]
            for (s, fl, d, (f, a)), cycles in sorted(calibration.hw_cycles.items())
        ],
        "power": {
            f"{model}/{design}": watts
            for (model, design), watts in calibration.power.items()
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise CalibrationError(f"calibration {what} must be a JSON object")
    return value


def load_calibration(text: str) -> CalibrationSet:
    """Parse calibration JSON back into a CalibrationSet."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CalibrationError(f"calibration file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise CalibrationError("calibration file version must be 1")

    def split_key(key: str) -> tuple[str, float]:
        name, _, mhz = key.rpartition("@")
        if not name:
            raise CalibrationError(f"bad calibration key {key!r}")
        return _directive_token(name), _mhz(mhz)

    try:
        latency = {}
        for key, e in _json_object(doc.get("latency", {}), "latency").items():
            latency[split_key(key)] = LatencyEntry(
                feature_count=int(e["feature_count"]),
                fit=_fit_from_json(e["fit"]),
                anchors={
                    int(s): int(v)
                    for s, v in _json_object(e.get("anchors", {}), "anchors").items()
                },
                per_feature=tuple(e["per_feature"]) if e.get("per_feature") else None,
            )
        resources = {}
        for key, e in _json_object(doc.get("resources", {}), "resources").items():
            resources[split_key(key)] = ResourceEntry(
                feature_count=int(e["feature_count"]),
                dsp=int(e["dsp"]),
                bram=_fit_from_json(e["bram"]),
                ff=_fit_from_json(e["ff"]),
                lut=_fit_from_json(e["lut"]),
                anchors={
                    int(s): (float(v[0]), int(v[1]), int(v[2]), int(v[3]))
                    for s, v in _json_object(e.get("anchors", {}), "anchors").items()
                },
            )
        arm = {}
        for key, e in _json_object(doc.get("arm", {}), "arm").items():
            fpga_s, _, arm_s = key.partition("/")
            arm[clock_key((fpga_s, arm_s))] = ArmCycleEntry(
                feature_count=int(e["feature_count"]),
                timer_mhz=_mhz(e["timer_mhz"]),
                plain=_fit_from_json(e["plain"]),
                optimized=_fit_from_json(e["optimized"]),
            )
        hw_cycles = {}
        for s, fl, d, f, a, cycles in doc.get("hw_cycles", []):
            hw_cycles[(int(s), int(fl), _directive_token(d), clock_key((f, a)))] = int(
                cycles
            )
        power = {}
        for key, watts in _json_object(doc.get("power", {}), "power").items():
            model, _, design = key.rpartition("/")
            power[(model, int(design))] = float(watts)
    except (LookupError, TypeError, ValueError) as exc:
        raise CalibrationError(f"calibration file is malformed: {exc}") from None
    return CalibrationSet(
        latency=latency,
        resources=resources,
        arm=arm,
        hw_cycles=hw_cycles,
        power=power,
    )
