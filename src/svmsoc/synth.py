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
calibration file or a caller: a CalibrationSet runs it on every record it
is built from, then derives the estimators' fits from its records.  The
built-in calibration is the fit of SHIPPED_RECORDS and a calibration file
stores the records themselves, so every calibration is fitted by the same
code.  The set checks each kind's records a column at a time: a column of
counts or amounts passes when every cell has the exact type and the column's
min and max lie in range, a column of directives, clocks or model ids is
checked once per distinct cell.  When a column may fail, or two records
share an identity, the set checks its records one at a time instead, which
gives the same records or names the first fault in record order.

Each group of records has one Fit in S, whose columns are the measured
quantities: latency, BRAM, FF and LUT of a (directive, regime) group,
plain and optimized processor cycles of a clock pairing.  An estimator
reads the columns it needs in one lookup.  At a measured S a column
returns the measured value exactly.  A single anchor carries no
S-dependence, so scaling it to another S is refused; two anchors give the
exact affine through both, three or more a least-squares line.  Every
estimate carries a validity tag saying whether it hit an anchor exactly,
interpolated between anchors, or extrapolated beyond them.  DSP use is
constant in S: the measured count at an anchor, the mean of the group's
distinct counts elsewhere.

Latency for the two directives whose inner loop runs Fl+1 iterations per
support vector (the streamed arrays carry one spare slot) decomposes as
slope = a*(Fl+1) + c, which lets those two generalize across feature
counts; everything else is pinned to its calibrated Fl.  A fitted figure
is refused in one order: an uncalibrated group, an S or Fl outside
1..2**53, another Fl (FlMismatch), a single anchor at another S, then a
value that is not finite.  Fit.at applies the last three.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from operator import is_not, le, mul, sub, truediv
from typing import NamedTuple, Sequence, Union

from .errors import CalibrationError, FlMismatch, UnknownCalibration, UnknownDesign, cut, quote

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
    "format_pairing",
    "parse_anchor_csv",
    "save_calibration",
    "load_calibration",
]

# validity tags
ANCHOR_EXACT = "anchor_exact"
INTERPOLATED = "interpolated"
EXTRAPOLATED = "extrapolated"

# The largest count a record holds and the largest S or Fl an estimator takes:
# every integer up to it converts to binary64 exactly.  Estimates are not
# bounded by it: a line read at S=2**53 goes far beyond (the shipped
# pipeline-inner latency there is about 5.0e17 cycles).
MAX_COUNT = 1 << 53


# The words int() and float() refuse a text with; their messages quote it whole
_REFUSALS = {
    int: "invalid literal for int() with base 10",
    float: "could not convert string to float",
}


def _converted(convert, value):
    """convert(value), int or float; a refused text that errors.cut cuts is quoted cut."""
    try:
        return convert(value)
    except ValueError as exc:
        words = _REFUSALS[convert]
        if isinstance(value, str) and cut(value) != value and str(exc).startswith(words):
            raise ValueError(f"{words}: {quote(value)}") from None
        raise  # Python's own text: it quotes the value whole, or not at all


def _mhz(value) -> float:
    v = round(_converted(float, value), 2)
    if not 0 < v < math.inf:
        raise ValueError(f"clock must be positive and finite, got {cut(repr(value))}")
    return v


def format_mhz(value: float) -> str:
    """A clock in MHz as every message and output prints it (100, 666.67)."""
    return f"{value:g}"


def format_pairing(fpga_mhz: float, arm_mhz: float) -> str:
    """A clock pairing as every message and output prints it."""
    return f"FPGA {format_mhz(fpga_mhz)} MHz / ARM {format_mhz(arm_mhz)} MHz"


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
            raise ValueError(f"unknown directive {quote(str(self.prefix))}")
        if takes_factor:
            if self.factor is not None and not hasattr(self.factor, "__index__"):
                got = cut(repr(self.factor))
                raise ValueError(f"{self.prefix} needs an integer factor, got {got}")
            if self.factor is None or self.factor < 2:
                raise ValueError(f"{self.prefix} needs a factor >= 2")
            if self.factor > MAX_COUNT:
                raise ValueError(f"{self.prefix} needs a factor of at most 2**53")
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

        Underscores and hyphens are interchangeable, case and surrounding
        blanks are ignored, and the array- prefix on partition/resource
        names and bare partition styles are accepted.  Every spelling,
        canonical or not, goes through this one normaliser; its result is
        cached by token text.  An unknown name or a bad factor raises
        ValueError.
        """
        return _parse_directive(token)


@lru_cache(maxsize=1024)
def _parse_directive(token: str) -> DirectiveConfig:
    """DirectiveConfig.parse, cached on the token."""
    t = token.strip().lower().replace("_", "-")
    if t.startswith(("array-partition-", "array-resource-")):
        t = t[len("array-") :]
    t = _ALIASES.get(t, t)
    if t.count("-") == 1 and t.split("-")[0] in ("cyclic", "block"):
        t = "partition-" + t
    if _DIRECTIVES.get(t) is False:
        return DirectiveConfig(t)
    prefix, _, factor = t.rpartition("-")
    if not _DIRECTIVES.get(prefix):
        raise ValueError(f"unknown directive {quote(token)}")
    try:
        factor = int(factor)
    except ValueError:
        raise ValueError(f"bad factor in directive {quote(token)}") from None
    return DirectiveConfig(prefix, factor)


def _directive_token(directive) -> str:
    """A directive's DirectiveConfig name."""
    if isinstance(directive, DirectiveConfig):
        return directive.name
    return _parse_directive(str(directive)).name


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
        value = _converted(int, value)
    elif isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{cut(repr(value))} is not an integer")
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
        value = _converted(float, value)
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
        raise ValueError(f"unknown record kind {quote(kind)}") from None


def _record(kind: str, cells) -> Record:
    """A kind's record from its cells (CSV text or JSON values), checked in shape only."""
    row_type, checks, _ = _schema(kind)
    if not isinstance(cells, (list, tuple)):
        raise ValueError(f"{kind} record must be a list, got {type(cells).__name__}")
    if len(cells) != len(checks):
        raise ValueError(f"{kind} record has {len(checks)} columns, got {len(cells)}")
    return row_type(*cells)


def _checked(rec) -> Record:
    """The record check: a record with each cell checked and normalised."""
    kind = _KIND.get(type(rec))
    if kind is None:
        raise ValueError(f"a {type(rec).__name__} is not a calibration record")
    row_type, checks, _ = _SCHEMA[kind]
    cells: list = []
    try:
        for check, cell in zip(checks, rec):
            cells.append(check(cell))
    except ValueError as exc:  # names the cell after those already checked
        raise ValueError(f"{kind} {row_type._fields[len(cells)]}: {exc}") from None
    return row_type(*cells)


def _int_column(least: int):
    """The column check of _count (least 1) or _measure (least 0)."""

    def column(cells: tuple):
        if set(map(type, cells)) == {int} and least <= min(cells) and max(cells) <= MAX_COUNT:
            return cells
        return None

    return column


def _amount_column(cells: tuple):
    # min and max can miss a nan, which makes the sum nan
    if set(map(type, cells)) == {float} and 0 <= min(cells) and sum(cells) < math.inf:
        return cells
    return None


def _distinct_column(check):
    """The column check that runs check once per distinct cell, in a column of one
    type: 1, 1.0 and True are equal values, but only the int is a count."""

    def column(cells: tuple):
        if len(set(map(type, cells))) != 1:
            return None
        checked = {cell: check(cell) for cell in set(cells)}
        if all(type(new) is type(cell) and new == cell for cell, new in checked.items()):
            return cells  # already in checked form
        return list(map(checked.__getitem__, cells))

    return column


# Each cell check's column check: a kind's column of cells checked and normalised
# as the cell check would, or None when a cell may fail it (or raises anything).
_COLUMN_CHECKS = {
    _count: _int_column(1),
    _measure: _int_column(0),
    _amount: _amount_column,
    _clock: _distinct_column(_clock),
    _directive_token: _distinct_column(_directive_token),
    _model_id: _distinct_column(_model_id),
}


def _by_column(records) -> dict | None:
    """Each kind's checked records, checked a column at a time.

    None when a value is not a record, a cell may fail its check or two
    records share an identity: _by_record then keeps one of two identical
    records, or names the first fault in record order.
    """
    by_kind: dict[type, list] = {row_type: [] for row_type in _KIND}
    for rec in records:
        rows = by_kind.get(type(rec))
        if rows is None:
            return None
        rows.append(rec)
    for row_type, rows in by_kind.items():
        if not rows:
            continue
        _, checks, identity = _SCHEMA[_KIND[row_type]]
        if set(map(len, rows)) != {len(checks)}:  # a tuple made past its type's constructor
            return None
        cells = list(zip(*rows))
        try:
            columns = [_COLUMN_CHECKS[check](column) for check, column in zip(checks, cells)]
        except Exception:  # whatever a cell raises, _by_record raises it in record order
            return None
        if None in columns or len(set(zip(*columns[:identity]))) != len(rows):
            return None
        if any(map(is_not, columns, cells)):  # a cell respelled
            by_kind[row_type] = list(map(row_type._make, zip(*columns)))
    return by_kind


def _by_record(records) -> dict:
    """Each kind's checked records, each once, checked record by record.

    Every cell is checked before any conflict, so the first faulty cell in
    record order is named, or else the first conflicting record.
    """
    table: dict[tuple, Record] = {}
    by_kind: dict[type, list] = {row_type: [] for row_type in _KIND}
    for rec in [_checked(rec) for rec in records]:
        kind = _KIND[type(rec)]
        key = (kind, *rec[: _SCHEMA[kind][2]])
        prev = table.get(key)
        if prev is None:
            table[key] = rec
            by_kind[type(rec)].append(rec)
        elif prev != rec:
            raise ValueError(f"conflicting {kind} records {_cells(prev)} and {_cells(rec)}")
    return by_kind


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
    """The fitted columns of one calibration group, as functions of S.

    group is a (directive, regime MHz) or an (FPGA MHz, ARM MHz) key and
    columns names its fitted columns.  They share feature_count, the Fl they
    were measured at, and points, which maps each measured S to the tuple of
    column values there.  slope and intercept hold one entry per column, or
    are None for a single anchor, which pins the values.  Two anchors give
    the exact affine through both, evaluated through the anchors so
    interpolation carries no slope round-off: rise holds each column's
    difference between them, and is None otherwise.  Three or more anchors
    give the least-squares line.  A line that is not finite is refused with
    ValueError.
    """

    __slots__ = (
        "feature_count", "points", "lo", "hi", "slope", "intercept", "rise", "group", "columns"
    )

    def __init__(self, feature_count: int, points: Sequence[tuple[int, tuple]], group, columns):
        pts = sorted(points)
        self.feature_count, self.group, self.columns = feature_count, group, columns
        self.points = dict(pts)
        self.lo, self.hi = pts[0][0], pts[-1][0]
        self.slope = self.intercept = self.rise = None
        if len(pts) == 2:  # every column in one pass
            (s1, v1), (s2, v2) = pts
            self.rise = tuple(map(sub, v2, v1))
            self.slope = tuple(map(truediv, self.rise, repeat(s2 - s1)))
            self.intercept = tuple(map(sub, v1, map(mul, self.slope, repeat(s1))))
            if not all(map(math.isfinite, self.intercept)):  # as it is where a slope is not
                column = next(i for i, b in enumerate(self.intercept) if not math.isfinite(b))
                raise _not_finite(self, column)
        elif len(pts) > 2:
            lines = map(_line, repeat(pts), range(len(columns)), repeat(self))
            self.slope, self.intercept = zip(*lines)

    def what(self, column: int) -> str:
        """The label every message gives a column: latency for pipeline-inner at 100 MHz."""
        return _figure_label(self.columns[column], self.group)

    def at(self, sv_count: int, feature_count: int, columns) -> tuple[list[float], str]:
        """The values at (S, Fl) of the columns read (indices), and their tag.

        Refuses, in this order: another Fl (FlMismatch, naming the first column
        read), a single anchor at another S, then a value that is not finite.
        """
        if feature_count != self.feature_count:
            fl = f"calibrated for Fl={self.feature_count}, not Fl={feature_count}"
            raise FlMismatch(f"{self.what(columns[0])} is {fl}")
        # loops, not comprehensions: on Python 3.11 each comprehension is a call
        point, values = self.points.get(sv_count), []
        if point is not None:
            for i in columns:
                values.append(point[i])
            return values, ANCHOR_EXACT
        lo, hi = self.lo, self.hi
        if self.slope is None:
            anchor = f"{self.what(columns[0])} has a single anchor at S={lo}"
            raise UnknownCalibration(f"{anchor}; scaling to S={sv_count} has no supporting data")
        if self.rise is not None:  # v1 + (v2 - v1) * (S - lo) / (hi - lo)
            v1, rise, steps = self.points[lo], self.rise, sv_count - lo
            for i in columns:
                values.append(v1[i] + rise[i] * steps / (hi - lo))
        else:
            for i in columns:
                values.append(self.slope[i] * sv_count + self.intercept[i])
        if not all(map(math.isfinite, values)):
            column = next(i for i, v in zip(columns, values) if not math.isfinite(v))
            raise CalibrationError(f"{self.what(column)} is not finite at S={sv_count}")
        return values, INTERPOLATED if lo < sv_count < hi else EXTRAPOLATED


def _not_finite(fit: Fit, column: int) -> ValueError:
    return ValueError(f"the fitted line of {fit.what(column)} is not finite")


def _line(points, column: int, fit: Fit) -> tuple[float, float]:
    """The least-squares slope and intercept of one column through three or more anchors."""
    import numpy as np

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow or a rank-deficient fit
        try:
            slope, intercept = np.polyfit(
                [float(s) for s, _ in points], [v[column] for _, v in points], 1
            )
        except RuntimeWarning as exc:
            raise ValueError(f"no least-squares line fits {fit.what(column)}: {exc}") from None
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise _not_finite(fit, column)
    return float(slope), float(intercept)


# --------------------------------------------------------------------------
# calibration set


# The fitted columns of synth records and of arm records, in Fit column
# order, each with the name its figure has in messages.
_SYNTH_FIGURES = {"latency_cycles": "latency", "bram": "bram", "ff": "ff", "lut": "lut"}
_ARM_FIGURES = {
    "plain_cycles": "plain processor cycles",
    "optimized_cycles": "optimized processor cycles",
}
_SYNTH_COLUMNS, _ARM_COLUMNS = tuple(_SYNTH_FIGURES), tuple(_ARM_FIGURES)


def _design_label(directive: str, regime_mhz: float) -> str:
    return f"{directive} at {format_mhz(regime_mhz)} MHz"


def _figure_label(column: str, group: tuple) -> str:
    """How messages name a fitted figure: latency for pipeline-inner at 100 MHz."""
    if column in _ARM_FIGURES:
        return f"{_ARM_FIGURES[column]} for {format_pairing(*group)}"
    return f"{_SYNTH_FIGURES[column]} for {_design_label(*group)}"


@dataclass(frozen=True)
class CalibrationSet:
    """A table of measured records, and what the estimators read from it.

    records is the table, each record once, grouped by kind; two sets are
    equal when their records are.  The rest derives from the records when
    the set is built.  fits maps each (directive, regime MHz) group of synth
    records and each (FPGA MHz, ARM MHz) pairing of arm records to the one
    Fit of all its fitted columns.  dsp holds, for each (directive, regime)
    synthesis group, its DSP count by S and its count elsewhere: the rounded
    mean of its distinct counts.  arm holds the timer MHz of each
    calibrated clock pairing, cosim_cycles the cycle count by (S, Fl,
    directive, (FPGA MHz, ARM MHz)) and power the watts by (S, directive).
    Every cell is checked and normalised as the loaders do (a directive
    respelled as its DirectiveConfig name, a clock rounded to 0.01 MHz); a
    value that is not a record, a faulty cell, a conflicting record or a
    fit that is not finite raises ValueError.  Each kind's records are
    checked a column at a time; when a column may fail, or a record repeats
    another's identity, they are checked record by record, which names the
    first fault in record order.
    """

    records: tuple[Record, ...]
    fits: dict[tuple, Fit] = field(init=False, repr=False, compare=False)
    dsp: dict[tuple, tuple[dict[int, int], int]] = field(init=False, repr=False, compare=False)
    arm: dict[tuple, float] = field(init=False, repr=False, compare=False)
    cosim_cycles: dict[tuple, int] = field(init=False, repr=False, compare=False)
    power: dict[tuple, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_kind = _by_column(self.records)
        if by_kind is None:
            by_kind = _by_record(self.records)
        cosim_cycles, power, designs = {}, {}, set()
        for rec in by_kind[CosimRecord]:
            key = (rec.sv_count, rec.feature_count, rec.directive, (rec.fpga_mhz, rec.arm_mhz))
            cosim_cycles[key] = rec.cycles
        for rec in by_kind[PowerRecord]:
            design = (rec.model_id, rec.design_id)
            if design in designs:
                raise ValueError(f"conflicting power records for {_cells(design)}")
            designs.add(design)
            power[(rec.sv_count, rec.directive)] = rec.watts

        fits, dsp, timers = {}, {}, {}
        synth = _groups(by_kind[AnchorRow], _SYNTH_COLUMNS, "dsp")
        for design, (points, fls, counts) in synth.items():
            fl = _one(fls, "feature_count", design, _design_label)
            fits[design] = Fit(fl, points, design, _SYNTH_COLUMNS)
            distinct = set(counts.values())
            dsp[design] = counts, round(sum(distinct) / len(distinct))
        arm = _groups(by_kind[ArmRecord], _ARM_COLUMNS, "timer_mhz")
        for pairing, (points, fls, timer) in arm.items():
            fl = _one(fls, "feature_count", pairing, format_pairing)
            fits[pairing] = Fit(fl, points, pairing, _ARM_COLUMNS)
            timers[pairing] = _one(set(timer.values()), "timer_mhz", pairing, format_pairing)
        records = tuple(rec for rows in by_kind.values() for rec in rows)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "fits", fits)
        object.__setattr__(self, "dsp", dsp)
        object.__setattr__(self, "arm", timers)
        object.__setattr__(self, "cosim_cycles", cosim_cycles)
        object.__setattr__(self, "power", power)


def _cells(cells: tuple) -> tuple:
    """A record's cells as a message quotes them, each text cell cut."""
    return tuple(cut(c) if isinstance(c, str) else c for c in cells)


def _groups(rows: list, columns: tuple[str, ...], by_s: str) -> dict[tuple, tuple]:
    """Each group of records, in first-seen order, as its Fit's points, its set of
    feature counts and its column by_s by S.

    A group is a record's third and fourth cells: the (directive, regime MHz)
    of a synth record, the (FPGA MHz, ARM MHz) of an arm record.  A point is
    an S and its values of the fitted columns, as floats.
    """
    groups: dict[tuple, tuple] = {}
    if not rows:
        return groups
    cells = dict(zip(rows[0]._fields, zip(*rows)))
    values = zip(*[map(float, cells[column]) for column in columns])
    for rec, point, value in zip(rows, zip(cells["sv_count"], values), cells[by_s]):
        group = groups.get(rec[2:4])
        if group is None:
            group = groups[rec[2:4]] = [], set(), {}
        group[0].append(point)
        group[1].add(rec.feature_count)
        group[2][point[0]] = value
    return groups


def _one(values: set, column: str, group: tuple, label):
    """The one value a column takes across a group's records; label names the group."""
    if len(values) != 1:
        raise ValueError(f"records for {label(*group)} mix {column} values {sorted(values)}")
    return next(iter(values))


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
    return CalibrationSet(tuple(r if type(r) in _KIND else _record("synth", r) for r in rows))


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


def _fit(cal, column: str, group, sv_count, feature_count) -> Fit:
    """A group's Fit for column; refuses an uncalibrated group, then a size outside 1..2**53."""
    fit = cal.fits.get(group)
    if fit is None:
        raise UnknownCalibration(f"{_figure_label(column, group)} is not calibrated")
    if not (0 < sv_count <= MAX_COUNT and 0 < feature_count <= MAX_COUNT):
        raise ValueError("sv_count and feature_count must be integers in 1..2**53")
    return fit


def _bridge(fit: Fit, feature_count: int) -> float | None:
    """A design's latency slope at another Fl: None at its own Fl or off PER_FEATURE_SLOPES."""
    a, c = PER_FEATURE_SLOPES.get(fit.group[0], (None, None))
    if feature_count != fit.feature_count and a is not None and fit.slope is not None:
        if abs(fit.slope[0] - (a * (fit.feature_count + 1) + c)) < 1e-6:
            return a * (feature_count + 1.0) + c
    return None


def estimate_latency(
    sv_count: int,
    feature_count: int,
    directive,
    regime_mhz,
    *,
    calibration: CalibrationSet | None = None,
) -> SynthesisEstimate:
    """Predict classifier latency in clock cycles for one directive.

    At a calibrated anchor the measured value comes back exactly; between
    anchors the affine fit applies; a feature count other than the
    calibrated one works only for directives with a per-feature slope
    decomposition and is always tagged extrapolated.
    """
    cal = calibration if calibration is not None else default_calibration()
    design = (_directive_token(directive), _mhz(regime_mhz))
    fit = _fit(cal, "latency_cycles", design, sv_count, feature_count)
    slope = _bridge(fit, feature_count)
    if slope is None:
        (value,), validity = fit.at(sv_count, feature_count, (0,))
    else:
        value, validity = slope * sv_count + fit.intercept[0], EXTRAPOLATED
    return SynthesisEstimate(validity=validity, latency_cycles=max(0, int(round(value))))


def estimate_design(
    sv_count: int,
    feature_count: int,
    directive,
    regime_mhz,
    *,
    calibration: CalibrationSet | None = None,
) -> SynthesisEstimate:
    """Predict latency and BRAM/DSP/FF/LUT use for one directive.

    Latency is estimate_latency's; one lookup reads it with BRAM, FF and
    LUT, which share its validity, and DSP use is constant in S.  At
    another Fl, FlMismatch names the latency, or the BRAM where it bridges.
    """
    cal = calibration if calibration is not None else default_calibration()
    design = (_directive_token(directive), _mhz(regime_mhz))
    fit = _fit(cal, "latency_cycles", design, sv_count, feature_count)
    if _bridge(fit, feature_count) is not None:  # the BRAM is the first figure to refuse
        fit.at(sv_count, feature_count, (1,))
    return SynthesisEstimate(*_design_fields(fit, cal.dsp[design], sv_count, feature_count))


def _design_fields(fit: Fit, dsp: tuple, sv_count, feature_count) -> tuple:
    """A design's SynthesisEstimate fields at (S, Fl), from its Fit and CalibrationSet.dsp."""
    (latency, bram, ff, lut), validity = fit.at(sv_count, feature_count, (0, 1, 2, 3))
    counts, elsewhere = dsp
    latency, ff, lut = max(0, round(latency)), max(0, round(ff)), max(0, round(lut))
    return validity, latency, max(0.0, bram), counts.get(sv_count, elsewhere), ff, lut


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
            f"no processor-cycle calibration for the {format_pairing(*pairing)} pairing"
        )
    return timer


def estimate_arm_cycles(
    sv_count: int,
    feature_count: int,
    clocks,
    optimized: bool = False,
    *,
    calibration: CalibrationSet | None = None,
) -> int:
    """Predict the software classifier's cycle count for one clock pairing.

    Counts are ticks of the pairing's calibrated timer (see
    arm_timer_mhz).  Affine in S where two measurements exist;
    single-measurement pairings only reproduce their own S.
    """
    cal = calibration if calibration is not None else default_calibration()
    pairing = clock_key(clocks)
    column = "optimized_cycles" if optimized else "plain_cycles"
    fit = _fit(cal, column, pairing, sv_count, feature_count)
    (value,), _ = fit.at(sv_count, feature_count, (fit.columns.index(column),))
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
    single-anchor entries at a different S or a line that is not finite
    at S, are skipped.  Each entry carries the power draw measured for the
    design built at this S with its directive, if any.  The front comes
    back sorted by latency, ties broken by directive name.
    """
    cal = calibration if calibration is not None else default_calibration()
    regime = _mhz(regime_mhz)
    candidates = []
    for design, dsps in cal.dsp.items():
        if design[1] != regime:
            continue
        fit = _fit(cal, "latency_cycles", design, sv_count, feature_count)
        # skip, without raising, what Fit.at refuses with FlMismatch or UnknownCalibration
        if feature_count != fit.feature_count or fit.slope is None and sv_count not in fit.points:
            continue
        try:
            fields = _design_fields(fit, dsps, sv_count, feature_count)
        except CalibrationError:  # a column that is not finite at S
            continue
        _, latency, bram, dsp, ff, lut = fields
        candidates.append(((latency, dsp, lut, ff, bram), design[0], fields))
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
    for cost, token, fields in candidates:
        for other, _, _ in front:
            if other != cost and all(map(le, other, cost)):
                break
        else:
            front.append((cost, token, SynthesisEstimate(*fields)))
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
    first other line is a header row when its first cell, no kind, starts
    with a letter.  Raises ValueError on a malformed row or a non-finite
    measurement.
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
        if kind not in _SCHEMA and kind[:1].isalpha() and lineno == lines[0][0]:
            continue  # header row
        try:
            records.append(_checked(_record(kind, cells)))
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


def _json_object(pairs: list) -> dict:
    """A JSON object; one that names a key twice is refused, where json keeps the last."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            twice = f"key {quote(key)} appears twice"
            raise CalibrationError(f"calibration file is malformed: {twice}")
        obj[key] = value
    return obj


def load_calibration(text: str) -> CalibrationSet:
    """Read calibration JSON (version 2: the records) in shape; its set checks the cells."""
    try:
        doc = json.loads(text, object_pairs_hook=_json_object)
    except (ValueError, RecursionError) as exc:
        raise CalibrationError(f"calibration file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("version") != 2:
        raise CalibrationError(
            "calibration file version must be 2; write it again with `svmsoc fit`"
        )
    records = []
    try:
        try:
            for kind, rows in doc.items():
                if kind == "version":
                    continue
                row_type, checks, _ = _schema(kind)
                if not isinstance(rows, list):
                    raise ValueError(f"{kind!r} must be a list of records")
                if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {len(checks)}:
                    records += map(row_type._make, rows)
                    continue
                for cells in rows:  # names the first row of another shape
                    records.append(_record(kind, cells))
        except ValueError:  # a faulty cell before a shape fault is named first
            for rec in records:
                _checked(rec)
            raise
        return CalibrationSet(tuple(records))
    except ValueError as exc:
        raise CalibrationError(f"calibration file is malformed: {exc}") from None
