"""Synthesis cost models calibrated from vendor-tool and board results.

A calibration is one table of measured records, of four kinds:

- synth (AnchorRow): one high-level-synthesis run of the streaming
  classifier, with its latency and BRAM/DSP/FF/LUT use.  The shipped runs
  are S=248 and S=346 with 27 features at a 100 MHz clock and S=61 with 27
  features at 250 MHz, one run per optimization directive.
- arm (ArmRecord): the host processor's plain and optimized classifier
  cycle counts at one S for one (FPGA MHz, ARM MHz) clock pairing, in
  ticks of that pairing's timer.
- cosim (CosimRecord): the accelerator's end-to-end cycle count measured
  in co-simulation for one S, Fl, directive and clock pairing.
- power (PowerRecord): the board power draw of one implemented (model,
  design), with the S and directive that design implements.

One schema checks every record, whether it comes from an anchor CSV, a
calibration file or a caller, and a CalibrationSet derives the
estimators' fits from its records.  The built-in calibration is the fit
of SHIPPED_RECORDS and a calibration file stores the records themselves,
so every calibration is fitted by the same code.

Each measured quantity (latency, BRAM, FF, LUT, processor cycles) is one
Fit in S over its (directive, clock) group.  At a measured S it returns the
measured value exactly.  A single anchor carries no S-dependence, so
scaling it to another S is refused unless explicitly forced; two anchors
give the exact affine through both, three or more a least-squares line.
Every estimate carries a validity tag saying whether it hit an anchor
exactly, interpolated between anchors, or extrapolated beyond them.  DSP
use is constant in S: the measured count at an anchor, the mean of the
group's distinct counts elsewhere.

Latency for the two directives whose inner loop runs Fl+1 iterations per
support vector (the streamed arrays carry one spare slot) decomposes as
slope = a*(Fl+1) + c, which lets those two generalize across feature
counts; everything else is pinned to its calibrated Fl.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from operator import le
from typing import NamedTuple, Sequence, Union

from .errors import CalibrationError, FlMismatch, UnknownCalibration, UnknownDesign

__all__ = [
    "ANCHOR_EXACT",
    "INTERPOLATED",
    "EXTRAPOLATED",
    "MAX_COUNT",
    "DirectiveConfig",
    "AnchorRow",
    "ArmRecord",
    "CosimRecord",
    "PowerRecord",
    "Fit",
    "CalibrationSet",
    "SynthesisEstimate",
    "ExploreEntry",
    "SHIPPED_ANCHORS",
    "SHIPPED_RECORDS",
    "PER_FEATURE_SLOPES",
    "fit_calibration",
    "default_calibration",
    "estimate_latency",
    "estimate_design",
    "estimate_arm_cycles",
    "estimate_power",
    "explore",
    "arm_timer_mhz",
    "clock_key",
    "format_mhz",
    "parse_anchor_csv",
    "save_calibration",
    "load_calibration",
]

# validity tags, ordered best to worst
ANCHOR_EXACT = "anchor_exact"
INTERPOLATED = "interpolated"
EXTRAPOLATED = "extrapolated"
_VALIDITY_RANK = {ANCHOR_EXACT: 0, INTERPOLATED: 1, EXTRAPOLATED: 2}

# The largest count or size a record or an estimate takes: every integer up
# to it converts to binary64 exactly, so no fit or estimate overflows on one.
MAX_COUNT = 1 << 53


def _mhz(value) -> float:
    v = round(float(value), 2)
    if not 0 < v < math.inf:
        raise ValueError(f"clock must be positive and finite, got {value!r}")
    return v


def format_mhz(value: float) -> str:
    """A clock in MHz as every message and output prints it (100, 666.67)."""
    return f"{value:g}"


def _worst(*tags: str) -> str:
    return max(tags, key=_VALIDITY_RANK.__getitem__)


# --------------------------------------------------------------------------
# directives

# Name prefix -> whether a "-<factor>" follows the prefix.
_DIRECTIVES = {
    "interface-only": False,
    "resource-bram": False,
    "resource-lut": False,
    "pipeline-inner": False,
    "pipeline-most": False,
    "pipeline-all": False,
    "unroll-inner": False,
    "unroll-most": False,
    "unroll-partial": True,
    "partition-block": True,
    "partition-cyclic": True,
    "partition-complete": False,
}


_ALIASES = {
    "interface": "interface-only",
    "interfaces": "interface-only",
    "baseline": "interface-only",
    "complete": "partition-complete",
}


@dataclass(frozen=True)
class DirectiveConfig:
    """One synthesis optimization directive, held as its name.

    prefix is the directive's name without a factor (pipeline-inner,
    partition-cyclic, ...) and factor holds the unroll/partition factor
    where one applies; name joins the two (partition-cyclic-16).
    """

    prefix: str
    factor: int | None = None

    def __post_init__(self):
        takes_factor = _DIRECTIVES.get(self.prefix)
        if takes_factor is None:
            raise ValueError(f"unknown directive {self.prefix!r}")
        if takes_factor:
            if self.factor is None or self.factor < 2:
                raise ValueError(f"{self.prefix} needs a factor >= 2")
        elif self.factor is not None:
            raise ValueError(f"{self.prefix} takes no factor")

    @property
    def name(self) -> str:
        return self.prefix if self.factor is None else f"{self.prefix}-{self.factor}"

    def __str__(self) -> str:
        return self.name

    @classmethod
    def parse(cls, token: str) -> "DirectiveConfig":
        """Build a DirectiveConfig from names like pipeline-inner or cyclic_8.

        Underscores and hyphens are interchangeable; the array- prefix on
        partition/resource names and bare partition styles are accepted.
        """
        if type(token) is str and _DIRECTIVES.get(token) is False:
            return cls(token)  # already a canonical factorless name
        t = token.strip().lower().replace("_", "-")
        if t.startswith(("array-partition-", "array-resource-")):
            t = t[len("array-") :]
        t = _ALIASES.get(t, t)
        if t.count("-") == 1 and t.split("-")[0] in ("cyclic", "block"):
            t = "partition-" + t
        if _DIRECTIVES.get(t) is False:
            return cls(t)
        prefix, _, factor = t.rpartition("-")
        if not _DIRECTIVES.get(prefix):
            raise ValueError(f"unknown directive {token!r}")
        try:
            factor = int(factor)
        except ValueError:
            raise ValueError(f"bad factor in directive {token!r}") from None
        return cls(prefix, factor)


def _directive_token(directive) -> str:
    if type(directive) is str and _DIRECTIVES.get(directive) is False:
        return directive
    if isinstance(directive, DirectiveConfig):
        return directive.name
    return DirectiveConfig.parse(str(directive)).name


# --------------------------------------------------------------------------
# measured records


class AnchorRow(NamedTuple):
    """A synth record: one synthesis run's latency and resource use."""

    sv_count: int
    feature_count: int
    directive: str
    regime_mhz: float
    latency_cycles: int
    bram: float
    dsp: int
    ff: int
    lut: int


class ArmRecord(NamedTuple):
    """An arm record: host classifier cycles, in ticks of timer_mhz."""

    sv_count: int
    feature_count: int
    fpga_mhz: float
    arm_mhz: float
    timer_mhz: float
    plain_cycles: int
    optimized_cycles: int


class CosimRecord(NamedTuple):
    """A cosim record: accelerator cycles measured in co-simulation."""

    sv_count: int
    feature_count: int
    directive: str
    fpga_mhz: float
    arm_mhz: float
    cycles: int


class PowerRecord(NamedTuple):
    """A power record: the board draw of the design built for (S, directive)."""

    sv_count: int
    directive: str
    model_id: str
    design_id: int
    watts: float


Record = Union[AnchorRow, ArmRecord, CosimRecord, PowerRecord]


def _integer(value, least: int) -> int:
    if isinstance(value, str):
        value = int(value)
    elif isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    if not least <= value <= MAX_COUNT:
        raise ValueError(f"must be an integer in {least}..2**53")
    return value


def _count(value) -> int:
    """A size, an id or a cycle count."""
    if type(value) is int and 0 < value <= MAX_COUNT:
        return value
    return _integer(value, 1)


def _measure(value) -> int:
    """A measured count that may be zero."""
    if type(value) is int and 0 <= value <= MAX_COUNT:
        return value
    return _integer(value, 0)


def _amount(value) -> float:
    """A finite, non-negative real such as a BRAM count or a power draw."""
    if type(value) is float and 0 <= value < math.inf:
        return value
    if isinstance(value, str):
        value = float(value)
    elif not isinstance(value, float):
        value = float(_measure(value))
    if not 0 <= value < math.inf:
        raise ValueError(f"{value!r} is not a finite non-negative number")
    return value


def _clock(value) -> float:
    if type(value) is float and 0 < value < math.inf and round(value, 2) == value:
        return value
    return _mhz(_amount(value))


def _model_id(model_id) -> str:
    t = str(model_id).strip().lower().replace(" ", "").replace("-", "").replace("_", "")
    if t in ("1", "model1", "m1"):
        return "model1"
    if t in ("2", "model2", "m2"):
        return "model2"
    if t in ("s", "models", "ms"):
        return "models"
    return t


# kind -> (record type, one check per column, how many leading columns
# identify a record; two records that agree there must agree everywhere)
_SCHEMA = {
    "synth": (
        AnchorRow,
        (_count, _count, _directive_token, _clock, _measure, _amount, _measure,
         _measure, _measure),
        4,
    ),
    "arm": (ArmRecord, (_count, _count, _clock, _clock, _clock, _measure, _measure), 4),
    "cosim": (CosimRecord, (_count, _count, _directive_token, _clock, _clock, _count), 5),
    "power": (PowerRecord, (_count, _directive_token, _model_id, _count, _amount), 2),
}
_KIND = {row_type: kind for kind, (row_type, _, _) in _SCHEMA.items()}


def _schema(kind: str):
    try:
        return _SCHEMA[kind]
    except KeyError:
        raise ValueError(f"unknown record kind {kind!r}") from None


def _record(kind: str, cells) -> Record:
    """A kind's record from its cells (CSV text or JSON values), each checked once."""
    row_type, checks, _ = _schema(kind)
    if not isinstance(cells, (list, tuple)):
        raise ValueError(f"{kind} record must be a list, got {type(cells).__name__}")
    if len(cells) != len(checks):
        raise ValueError(f"{kind} record has {len(checks)} columns, got {len(cells)}")
    try:
        return row_type(*[check(cell) for check, cell in zip(checks, cells)])
    except ValueError:
        raise ValueError(_record_fault(kind, cells)) from None


def _record_fault(kind: str, cells) -> str:
    """The message for the first faulty cell of a record that has one."""
    row_type, checks, _ = _SCHEMA[kind]
    for name, check, cell in zip(row_type._fields, checks, cells):
        try:
            check(cell)
        except ValueError as exc:
            return f"{kind} {name}: {exc}"
    raise AssertionError("record has no fault")


# Vendor-tool synthesis results for the shipped classifier sizes.
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

# Every measured record the package ships: the synthesis runs, then the
# bare-metal classifier cycle counts on the host core (the 100/666.67
# pairing counts ticks of the 100 MHz platform timer, the 250 MHz pairings
# read the core cycle counter), the co-simulated accelerator cycle counts,
# and the board power draw of each implemented design.
SHIPPED_RECORDS: tuple[Record, ...] = SHIPPED_ANCHORS + (
    ArmRecord(61, 27, 100.0, 666.67, 100.0, 77367, 22398),
    ArmRecord(248, 27, 100.0, 666.67, 100.0, 309378, 90585),
    ArmRecord(61, 27, 250.0, 250.0, 250.0, 77367, 22398),
    ArmRecord(61, 27, 250.0, 666.67, 666.67, 28968, 8431),
    CosimRecord(61, 27, "pipeline-inner", 250.0, 250.0, 3693),
    CosimRecord(61, 27, "unroll-most", 250.0, 250.0, 3690),
    CosimRecord(61, 27, "pipeline-inner", 250.0, 666.67, 2815),
    PowerRecord(248, "pipeline-inner", "model1", 1, 1.756),
    PowerRecord(248, "unroll-most", "model1", 2, 1.824),
    PowerRecord(248, "partition-cyclic-16", "model1", 3, 1.851),
    PowerRecord(346, "pipeline-inner", "model2", 1, 1.758),
    PowerRecord(346, "unroll-inner", "model2", 2, 2.125),
    PowerRecord(346, "partition-cyclic-16", "model2", 3, 1.842),
    PowerRecord(61, "pipeline-inner", "models", 1, 1.686),
    PowerRecord(61, "unroll-most", "models", 2, 1.766),
)

# Latency-slope decomposition slope = a*(Fl+1) + c for directives whose
# per-SV cost is dominated by the feature loop (trip count Fl+1 because
# the streamed arrays are sized one past the feature count).
PER_FEATURE_SLOPES: dict[str, tuple[int, int]] = {
    "interface-only": (11, 23),
    "pipeline-inner": (2, 0),
}


# --------------------------------------------------------------------------
# fits


class Fit:
    """One measured quantity as a function of S, through its anchors.

    One anchor pins the value (slope and intercept are None); two give the
    exact affine through both, evaluated through the anchors themselves so
    interpolation carries no slope round-off; three or more give the
    least-squares line.  points maps each measured S to its value,
    feature_count is the Fl the quantity was measured at, and what is the
    label every message gives it; it may be given as a calibration's
    (column, *group) fits key, and is then formatted only when read.  A
    line that is not finite is refused with ValueError.
    """

    __slots__ = ("feature_count", "points", "lo", "hi", "slope", "intercept", "_what")

    def __init__(
        self, feature_count: int, points: Sequence[tuple[int, float]], what: str | tuple
    ):
        pts = sorted(points)
        self.feature_count = feature_count
        self._what = what
        self.points = dict(pts)
        self.lo, self.hi = pts[0][0], pts[-1][0]
        slope = intercept = None
        if len(pts) == 2:
            (s1, v1), (s2, v2) = pts
            slope = (v2 - v1) / (s2 - s1)
            intercept = v1 - slope * s1
        elif len(pts) > 2:
            slope, intercept = _least_squares(pts, self)
        self.slope, self.intercept = slope, intercept
        if slope is not None and not (math.isfinite(slope) and math.isfinite(intercept)):
            raise ValueError(f"the fitted line of {self.what} is not finite")

    @property
    def what(self) -> str:
        what = self._what
        return what if type(what) is str else _figure_label(what[0], what[1:])

    def at(self, sv_count: int, allow_point_reuse: bool) -> tuple[float, str]:
        """The value at S and its validity tag."""
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


def _least_squares(points, fit: Fit) -> tuple[float, float]:
    import numpy as np

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow or a rank-deficient fit
        try:
            slope, intercept = np.polyfit(
                [float(s) for s, _ in points], [v for _, v in points], 1
            )
        except RuntimeWarning as exc:
            raise ValueError(f"no least-squares line fits {fit.what}: {exc}") from None
    return float(slope), float(intercept)


# --------------------------------------------------------------------------
# calibration set


# The fitted columns of synth records and of arm records, each with the
# name its figure has in messages.
_SYNTH_FIGURES = {"latency_cycles": "latency", "bram": "bram", "ff": "ff", "lut": "lut"}
_ARM_FIGURES = {
    "plain_cycles": "plain processor cycles",
    "optimized_cycles": "optimized processor cycles",
}


def _design_label(design: tuple[str, float]) -> str:
    return f"{design[0]} at {format_mhz(design[1])} MHz"


def _pairing_label(pairing: tuple[float, float]) -> str:
    return f"FPGA {format_mhz(pairing[0])} MHz / ARM {format_mhz(pairing[1])} MHz"


def _figure_label(column: str, group: tuple) -> str:
    """How messages name a fitted figure: latency for pipeline-inner at 100 MHz."""
    if column in _ARM_FIGURES:
        return f"{_ARM_FIGURES[column]} for {_pairing_label(group)}"
    return f"{_SYNTH_FIGURES[column]} for {_design_label(group)}"


@dataclass(frozen=True)
class CalibrationSet:
    """A table of measured records, and what the estimators read from it.

    records is the table, each record once, grouped by kind; two sets are
    equal when their records are.  The rest derives from the records when
    the set is built.  fits maps (column, directive, regime MHz) for the
    latency_cycles, bram, ff and lut columns of synth records, and (column,
    FPGA MHz, ARM MHz) for the plain_cycles and optimized_cycles columns of
    arm records, to the Fit of that column.  dsp holds the DSP count by S
    of each (directive, regime) synthesis group, arm the timer MHz of each
    calibrated clock pairing, cosim_cycles the cycle count by (S, Fl,
    directive, (FPGA MHz, ARM MHz)) and power the watts by (S, directive).
    A conflicting record or a fit that is not finite raises ValueError.
    """

    records: tuple[Record, ...]
    fits: dict[tuple, Fit] = field(init=False, repr=False, compare=False)
    dsp: dict[tuple, dict[int, int]] = field(init=False, repr=False, compare=False)
    arm: dict[tuple, float] = field(init=False, repr=False, compare=False)
    cosim_cycles: dict[tuple, int] = field(init=False, repr=False, compare=False)
    power: dict[tuple, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table: dict[tuple, Record] = {}
        by_kind: dict[type, list[Record]] = {row_type: [] for row_type in _KIND}
        for rec in self.records:
            kind = _KIND[type(rec)]
            key = (kind, *rec[: _SCHEMA[kind][2]])
            prev = table.get(key)
            if prev is None:
                table[key] = rec
                by_kind[type(rec)].append(rec)
            elif prev != rec:
                raise ValueError(f"conflicting {kind} records {tuple(prev)} and {tuple(rec)}")
        synth, arm, cosim_cycles, power, designs = {}, {}, {}, {}, set()
        for rec in by_kind[AnchorRow]:
            synth.setdefault((rec.directive, rec.regime_mhz), []).append(rec)
        for rec in by_kind[ArmRecord]:
            arm.setdefault((rec.fpga_mhz, rec.arm_mhz), []).append(rec)
        for rec in by_kind[CosimRecord]:
            key = (rec.sv_count, rec.feature_count, rec.directive, (rec.fpga_mhz, rec.arm_mhz))
            cosim_cycles[key] = rec.cycles
        for rec in by_kind[PowerRecord]:
            design = (rec.model_id, rec.design_id)
            if design in designs:
                raise ValueError(f"conflicting power records for {design}")
            designs.add(design)
            power[(rec.sv_count, rec.directive)] = rec.watts

        fits, dsp, timers = {}, {}, {}
        for design, rows in synth.items():
            _group_fits(fits, rows, design, _design_label, _SYNTH_FIGURES)
            dsp[design] = {r.sv_count: r.dsp for r in rows}
        for pairing, rows in arm.items():
            _group_fits(fits, rows, pairing, _pairing_label, _ARM_FIGURES)
            timers[pairing] = _shared(rows, "timer_mhz", pairing, _pairing_label)
        records = tuple(rec for rows in by_kind.values() for rec in rows)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "fits", fits)
        object.__setattr__(self, "dsp", dsp)
        object.__setattr__(self, "arm", timers)
        object.__setattr__(self, "cosim_cycles", cosim_cycles)
        object.__setattr__(self, "power", power)

    def directives_for(self, regime_mhz: float) -> tuple[str, ...]:
        r = _mhz(regime_mhz)
        return tuple(sorted(d for d, reg in self.dsp if reg == r))


def _shared(rows, column: str, group: tuple, label):
    """The one value of a column across a group's records; label names the group."""
    values = {getattr(r, column) for r in rows}
    if len(values) != 1:
        raise ValueError(f"records for {label(group)} mix {column} values {sorted(values)}")
    return values.pop()


def _group_fits(fits: dict, rows, group: tuple, label, columns) -> None:
    """Add one Fit in S per fitted column of a group of records at one Fl to fits."""
    fl = _shared(rows, "feature_count", group, label)
    svs = [r.sv_count for r in rows]
    for column in columns:
        key = (column, *group)
        fits[key] = Fit(fl, zip(svs, [float(getattr(r, column)) for r in rows]), key)


def fit_calibration(rows: Sequence[Record | tuple]) -> CalibrationSet:
    """Check a table of measured records and fit the estimators' models.

    rows holds records of any kind; a plain tuple is a synth row.  Every
    column of a (directive, regime) group of synth rows, and every cycle
    column of a clock pairing's arm rows, becomes one Fit in S: a single row
    pins a point, two rows an exact affine, three or more a least-squares
    line.  Rows in a group must share a feature count, and an identical
    repeated row counts once.  A malformed or conflicting record, or a fit
    that is not finite, raises ValueError.
    """
    return CalibrationSet(tuple(_record(_KIND.get(type(r), "synth"), r) for r in rows))


@lru_cache(maxsize=1)
def default_calibration() -> CalibrationSet:
    """The calibration shipped with the package: the fit of SHIPPED_RECORDS."""
    return fit_calibration(SHIPPED_RECORDS)


# --------------------------------------------------------------------------
# estimates


@dataclass(frozen=True)
class SynthesisEstimate:
    """Latency and/or resource prediction plus how trustworthy it is.

    validity is anchor_exact when every reported figure sits on a
    measured anchor, interpolated when S lies between anchors of an
    affine fit, extrapolated beyond them or across feature counts.
    throughput_cycles derives from latency_cycles.
    """

    validity: str
    latency_cycles: int | None = None
    bram: float | None = None
    dsp: int | None = None
    ff: int | None = None
    lut: int | None = None

    @property
    def throughput_cycles(self) -> int | None:
        """Cycles between successive classifications: the latency plus one."""
        return None if self.latency_cycles is None else self.latency_cycles + 1


def _figure(cal, column, group, sv_count, feature_count, allow_point_reuse) -> tuple[float, str]:
    """One fitted column of a (directive, regime) or clock-pairing group at (S, Fl).

    Returns the value and its validity tag.  Refuses, in this order: an
    uncalibrated group (UnknownCalibration), a size outside 1..2**53
    (ValueError), another feature count (FlMismatch), and what Fit.at
    refuses.
    """
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


def _latency(cal, design, sv_count, feature_count, allow_point_reuse) -> tuple[int, str]:
    """The latency figure, bridged to another Fl by its per-feature slope where one fits."""
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
    cal = calibration if calibration is not None else default_calibration()
    design = (_directive_token(directive), _mhz(regime_mhz))
    latency, validity = _latency(cal, design, sv_count, feature_count, allow_point_reuse)
    return SynthesisEstimate(validity=validity, latency_cycles=latency)


def estimate_design(
    sv_count: int,
    feature_count: int,
    directive,
    regime_mhz,
    *,
    calibration: CalibrationSet | None = None,
    allow_point_reuse: bool = False,
) -> SynthesisEstimate:
    """Predict latency and BRAM/DSP/FF/LUT use for one directive.

    Latency is estimate_latency's.  The resource figures never bridge
    feature counts: another Fl raises FlMismatch.  BRAM, FF and LUT are
    fitted in S like latency; DSP count is constant per (directive,
    regime): the measured count at an anchor, the mean of the distinct
    measured counts elsewhere.  The estimate carries the worst validity
    of its figures.
    """
    cal = calibration if calibration is not None else default_calibration()
    design = (_directive_token(directive), _mhz(regime_mhz))
    return _design_estimate(cal, design, sv_count, feature_count, allow_point_reuse)


def _design_estimate(
    cal, design, sv_count, feature_count, allow_point_reuse
) -> SynthesisEstimate:
    """estimate_design for a (directive name, regime MHz) design key, read as is."""
    args = (sv_count, feature_count, allow_point_reuse)
    latency, v0 = _latency(cal, design, *args)
    bram, v1 = _figure(cal, "bram", design, *args)
    ff, v2 = _figure(cal, "ff", design, *args)
    lut, v3 = _figure(cal, "lut", design, *args)
    dsps = cal.dsp[design]
    dsp = dsps.get(sv_count)
    if dsp is None:
        distinct = set(dsps.values())
        dsp = round(sum(distinct) / len(distinct))
    return SynthesisEstimate(
        validity=_worst(v0, v1, v2, v3),
        latency_cycles=latency,
        bram=max(0.0, bram),
        dsp=dsp,
        ff=max(0, int(round(ff))),
        lut=max(0, int(round(lut))),
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


def arm_timer_mhz(clocks, calibration: CalibrationSet | None = None) -> float:
    """The clock, in MHz, whose ticks a pairing's processor-cycle counts are."""
    cal = calibration if calibration is not None else default_calibration()
    pairing = clock_key(clocks)
    timer = cal.arm.get(pairing)
    if timer is None:
        raise UnknownCalibration(
            f"no processor-cycle calibration for the {_pairing_label(pairing)} pairing"
        )
    return timer


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
    arm_timer_mhz).  Affine in S where two measurements exist;
    single-measurement pairings only reproduce their own S.
    """
    cal = calibration if calibration is not None else default_calibration()
    pairing = clock_key(clocks)
    column = "optimized_cycles" if optimized else "plain_cycles"
    value, _validity = _figure(cal, column, pairing, sv_count, feature_count, allow_point_reuse)
    return max(0, int(round(value)))


def estimate_power(
    model_id, design_id: int, *, calibration: CalibrationSet | None = None
) -> float:
    """Board power draw in watts for an implemented (model, design) pair."""
    cal = calibration if calibration is not None else default_calibration()
    key = (_model_id(model_id), int(design_id))
    for rec in cal.records:
        if type(rec) is PowerRecord and (rec.model_id, rec.design_id) == key:
            return rec.watts
    raise UnknownDesign(f"no power measurement for ({model_id}, design {design_id})")


# --------------------------------------------------------------------------
# design-space exploration


@dataclass(frozen=True)
class ExploreEntry:
    directive: DirectiveConfig
    estimate: SynthesisEstimate
    power_w: float | None


def explore(
    sv_count: int,
    feature_count: int,
    regime_mhz,
    *,
    calibration: CalibrationSet | None = None,
) -> list[ExploreEntry]:
    """Pareto front over (latency, DSP, LUT, FF, BRAM), all minimized.

    Candidates are every directive calibrated for the regime.  Directives
    whose calibration cannot produce a full estimate at this (S, Fl), e.g.
    single-anchor entries at a different S, are skipped.  Each entry
    carries the power draw measured for the design built at this S with
    its directive, if any.  The front comes back sorted by latency, ties
    broken by directive name.
    """
    cal = calibration if calibration is not None else default_calibration()
    regime = _mhz(regime_mhz)
    candidates = []
    for token, mhz in cal.dsp:
        if mhz != regime:
            continue
        try:
            est = _design_estimate(cal, (token, mhz), sv_count, feature_count, False)
        except (UnknownCalibration, FlMismatch):
            continue
        candidates.append(((est.latency_cycles, est.dsp, est.lut, est.ff, est.bram), token, est))
    if not candidates:
        raise UnknownCalibration(
            f"no directive calibrated at {format_mhz(regime)} MHz can estimate"
            f" S={sv_count}, Fl={feature_count}"
        )
    # A cost dominates another when it differs and is no worse anywhere, so
    # it sorts first, and so does whatever front member dominates it in
    # turn: in cost order, each candidate is tested against the front so far.
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


# --------------------------------------------------------------------------
# calibration persistence


def parse_anchor_csv(text: str) -> list[Record]:
    """Parse an anchor CSV: one measured record a line, checked.

    A synth line is the nine AnchorRow columns, optionally after a "synth"
    cell; an arm, cosim or power line starts with its kind cell, followed
    by that record's columns.  Blank lines and # comments are skipped; the
    first other line may be a header row.  Raises ValueError on a malformed
    row or a non-finite measurement.
    """
    lines = [
        (lineno, line)
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    records: list[Record] = []
    for lineno, line in lines:
        cells = [c.strip() for c in line.split(",")]
        kind = "synth" if cells[0].lstrip("-").isdigit() else cells.pop(0)
        if kind not in _SCHEMA and lineno == lines[0][0]:
            continue  # header row
        try:
            records.append(_record(kind, cells))
        except ValueError as exc:
            raise ValueError(f"anchor csv line {lineno}: {exc}") from None
    if not records:
        raise ValueError("anchor csv has no data rows")
    return records


def save_calibration(calibration: CalibrationSet) -> str:
    """The calibration's records as deterministic JSON text (version 2).

    Each kind maps to its records in table order, each record a list of
    its cells in anchor-CSV column order, one record a line.
    """
    parts = ['  "version": 2']
    for kind, (row_type, _, _) in _SCHEMA.items():
        rows = ",\n".join(
            f"    {json.dumps(list(r))}" for r in calibration.records if type(r) is row_type
        )
        parts.append(f'  "{kind}": [\n{rows}\n  ]' if rows else f'  "{kind}": []')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def load_calibration(text: str) -> CalibrationSet:
    """Check calibration JSON (version 2: the records) and fit it."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CalibrationError(f"calibration file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("version") != 2:
        raise CalibrationError(
            "calibration file version must be 2; write it again with `svmsoc fit`"
        )
    try:
        records = []
        for kind, rows in doc.items():
            if kind == "version":
                continue
            _schema(kind)
            if not isinstance(rows, list):
                raise ValueError(f"{kind!r} must be a list of records")
            records += [_record(kind, cells) for cells in rows]
        return CalibrationSet(tuple(records))
    except ValueError as exc:
        raise CalibrationError(f"calibration file is malformed: {exc}") from None
