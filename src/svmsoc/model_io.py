"""Model, instance, and stream-frame types plus all text/binary parsers.

On-disk formats handled here:

* SVM-Light model files, linear kernel only: an 11-line header followed by
  one sparse support-vector line per SV.
* A three-file plain-text form: the support vectors as an S x Fl matrix
  ("svs" text), the bias followed by the S alpha*y weights ("alpha" text),
  and a bare Fl-vector ("test" text).
* Labeled CSV: Fl feature columns then a +/-1 label column.
* The accelerator stream frame: S*Fl + 1 + S + Fl little-endian binary32
  words in transfer order (support vectors row-major, then bias, then
  alpha*y weights, then the test vector).

Every stored real is binary32.  Parsers round each decimal to the nearest
binary32 exactly once: a file's binary64 values go to binary32 in one array
step, and a value that lands exactly on a binary32 midpoint on the way is
settled from its decimal text.  The parsers read the binary64 values with
numpy's C text reader (`np.loadtxt`), which rounds each decimal as `float`
does.  Each file is read on its own: a file the reader refuses, or one
holding a non-finite value, a CSV label other than +/-1 or a character the
two read differently, is read line by line with `float` instead, which
names the first faulty line.  An SVM-Light body goes to the reader only
when byte-level checks prove it canonical dense (`w 1:v 2:v ... Fl:v` on
every line); a sparse, out-of-order or otherwise different body is read
line by line.  An ASCII text whose first 4 KiB hold a fraction of more than
14 digits, as `repr` and SVM-Light write them, is read with every fraction
digit past the 14th set to "0" and split once (`_reader_lines`), which the
reader converts two to three times faster and which moves a value by less
than 1e-14.  Each value read that near a binary32 midpoint, or outside
binary32's normal range, is read again from its whole token, and so is a
CSV's label column when a cut can move a label onto or off +/-1, so no bit,
error or line number changes.  A block where a non-negative exponent
follows a long fraction, or where a run of 15 digits is no fraction, is
read uncut.  The texts this module emits are not cut.
Emitters format whole arrays (`format_reals`) with the shortest decimal
that parses back to the same binary32, as numpy's Dragon4 prints it, so
emit/parse round-trips are bit-exact.  An array of a few hundred values or
more is printed an array at a time: an exact binary64 digit search finds
every value's digits at once, and the text is built in one byte frame per
block.  Dragon4 prints the rest: small arrays, and zero, subnormals, powers
of two, values outside [1e-4, 1e9), nan and infinities.  The array path's
digits are not parsed back: `tests/sweep_format.py` checks them once, for
every binary32 in its range, against Dragon4.

No body line confirms an SVM-Light header's "highest feature index", so a
model above MAX_DENSE_VALUES support-vector values is refused before its
dense matrix is allocated.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    FrameLengthError,
    MalformedDataset,
    MalformedInstance,
    MalformedModel,
    UnsupportedKernel,
    quote,
)

__all__ = [
    "TrainedModel",
    "TestInstance",
    "LabeledDataset",
    "StreamFrame",
    "parse_svmlight_model",
    "parse_native_model",
    "parse_test_instance",
    "load_dataset",
    "emit_native_model",
    "emit_test_instance",
    "emit_dataset",
    "emit_stream",
    "parse_stream",
    "make_synthetic",
    "format_real",
    "format_reals",
    "MAX_DENSE_VALUES",
]

_F32 = np.float32

# Largest S x Fl an SVM-Light model may declare or make_synthetic draw: 2**24
# binary32 values (64 MiB), 650 times the 400 x 64 stress size.
MAX_DENSE_VALUES = 1 << 24


def _dense_fault(sv_count: int, feature_count: int) -> str | None:
    """Why an S x Fl model is too large to hold densely, or None if it is not."""
    if sv_count * feature_count <= MAX_DENSE_VALUES:
        return None
    return (
        f"{sv_count} support vectors x {feature_count} features exceeds"
        f" {MAX_DENSE_VALUES} values"
    )


def _freeze(arr: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # callers refuse the infinities it makes
        out = np.array(arr, dtype=_F32, order="C", copy=True)
    out.flags.writeable = False
    return out


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two binary32 arrays hold the same shape and bit patterns."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


def _shortest(values: np.ndarray) -> list[str]:
    """Shortest round-trip decimal of each value of a 1-D binary32 array, by Dragon4.

    numpy's float32 repr is the shortest digit string; the few values it
    prints in exponent form are rewritten positionally.  The caller pins
    the print options (a legacy mode prints 6 digits, which do not round-trip).
    """
    texts = values.astype(str).tolist()
    if "e" in "".join(texts):  # nan and inf hold no "e"
        texts = [
            np.format_float_positional(v, unique=True, trim="0") if "e" in t else t
            for v, t in zip(values, texts)
        ]
    return texts


# -- the certified array path of format_reals
#
# A value v = M * 2**e (M the 24-bit significand, ulp = 2**e) is printed by
# Dragon4 as D * 10**Q: the largest Q at which a multiple of 10**Q lies
# within half an ulp of v (the bounds included when M is even, as they
# round to v), and of those the nearest (ties to even D).  The array path
# finds D and Q for all values at once in binary64; tests/sweep_format.py
# compares its text with Dragon4's for every binary32 in its range.

_ARRAY_MIN = 320  # fewer values print faster one at a time (break-even, CHANGES.md)
_BLOCK_VALUES = 4096  # values printed through one text frame, which bounds its memory


def _decimal_scales():
    """Per biased binary32 exponent: m, 10**-m, and half an ulp in units of 10**m.

    m is the largest integer at most 0 with 10**m <= ulp, so t = |v| * 10**-m
    is the significand's digits, below 10**9 in the array path's range, and
    half an ulp is at least 1/2 in its units.  From |v| = 2**-14 up to 2**53,
    10**-m (m >= -22) and half an ulp are exact in binary64 and so is t.
    """
    e = np.arange(256) - 150
    m = np.minimum(np.floor(e * math.log10(2)), 0).astype(np.intp)  # e*log10(2) is no integer
    up = np.array([float(10**k) for k in (-m).tolist()])
    return m, up, np.ldexp(up, e - 1)


_SCALE, _SCALE_UP, _HALF_ULP = _decimal_scales()
_POW10 = np.array([float(10**k) for k in range(23)])  # exact in binary64


def _certified(mag: np.ndarray, biased: np.ndarray):
    """Dragon4's digits D and exponents Q of binary32 magnitudes.

    mag holds normal binary32 magnitudes in [1e-4, 1e9) whose significand is
    not a power of two (Dragon4 narrows the lower half-ulp there, which
    gives 2**25 and 2**26 other digits), as binary64; biased holds their
    exponent fields.  The digit search is exact, so it needs no tolerance: t
    and half an ulp are exact, each nearest multiple of 10**j is an integer
    below 2**53, and t less that multiple is exact (Sterbenz) wherever it is
    near enough to be compared with half an ulp.  D and Q are not parsed
    back: tests/sweep_format.py finds them equal to Dragon4's for every such
    value.
    """
    t = mag * _SCALE_UP.take(biased)
    digits, power = np.rint(t), np.zeros(t.size, dtype=np.intp)
    half = _HALF_ULP.take(biased)
    even = mag.view(np.uint64) & (1 << 29) == 0  # M's last bit, in binary64
    half[even] = np.nextafter(half[even], np.inf)  # |t - x| < that: within or on the bound
    # a multiple of 10**j within half an ulp is one of 10**(j-1) too, so the
    # lanes that find one at j are a subset of those that found one at j - 1
    live, tl, j = np.arange(t.size), t, 1
    while live.size:
        near = np.rint(tl / _POW10[j])
        within = np.flatnonzero(np.abs(tl - near * _POW10[j]) < half)
        live, tl, half = live.take(within), tl.take(within), half.take(within)
        digits[live] = near.take(within)
        power[live] = j
        j += 1
    return digits, _SCALE.take(biased) + power


# Each value's text is built in one row of a byte frame: its sign, the 4-digit
# chunks of its integer part that any value of the block needs, ".", three
# 4-digit chunks of its fraction, then its separator.  Pad bytes are NUL and
# are dropped at the end.  Chunks come from one table of 4-byte words in
# three forms: all four digits, leading zeros as NUL (the leading integer
# chunk; 0 prints "0") and trailing zeros as NUL (the fraction's last chunks;
# 0 prints nothing).
_LEAD, _TRAIL = 10**4, 2 * 10**4  # where the two NUL forms start in the table
_NUL = _TRAIL  # trailing-zero form of 0: four NUL bytes


def _digit_words() -> np.ndarray:
    """The 4-digit chunk table: all digits, then leading and trailing zeros as NUL."""
    digits = np.arange(10**4, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1]) % 10
    text = (digits + ord("0")).astype(np.uint8)
    leading = ~np.logical_or.accumulate(digits != 0, axis=1) & (np.arange(4) < 3)
    trailing = ~np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    return np.concatenate([text, text * ~leading, text * ~trailing]).view(np.uint32).ravel()


_WORDS = _digit_words()


def _chunks(x: np.ndarray):
    """The three 4-digit chunks, high first, of integers below 10**12 held in binary64."""
    high = np.floor(x / 1e8)  # exact: x / 10**k is off by far less than 10**-k
    rest = x - high * 1e8
    mid = np.floor(rest / 1e4)
    return high, mid, rest - mid * 1e4


def _text(rows: np.ndarray, sep: bytes) -> str:
    """The text of a 2-D binary32 block: values joined by sep, each row ended by a newline."""
    flat = rows.reshape(-1)
    mag = np.abs(flat)
    bits = mag.view(np.uint32)
    lanes = np.flatnonzero((mag >= 1e-4) & (mag < 1e9) & (bits & 0x7FFFFF != 0))
    digits, exp10 = np.zeros(flat.size), np.zeros(flat.size, dtype=np.intp)
    digits[lanes], exp10[lanes] = _certified(
        mag[lanes].astype(np.float64), (bits[lanes] >> 23).astype(np.intp)
    )

    # integer part and fraction * 10**12, both below 10**12
    shift = np.maximum(-exp10, 0)
    high = np.floor(digits / _POW10[shift])
    whole = high * _POW10[np.maximum(exp10, 0)]
    fraction = (digits - high * _POW10[shift]) * _POW10[12 - shift]
    i0, i1, i2 = _chunks(whole)
    f0, f1, f2 = _chunks(fraction)
    big, mid = whole >= 1e8, whole >= 1e4
    columns = [
        np.where(big, i0 + _LEAD, _NUL),
        np.where(mid, i1 + _LEAD * ~big, _NUL),
        i2 + _LEAD * ~mid,
        f0 + np.where(f1 + f2 > 0, 0, np.where(f0 > 0, _TRAIL, _LEAD)),
        f1 + _TRAIL * (f2 == 0),
        f2 + _TRAIL,
    ][2 - int(mid.any()) - int(big.any()) :]  # integer chunks no value needs are left out
    n, digit_end = flat.size, 4 * len(columns) + 2
    words = np.empty((n, len(columns)), dtype=np.intp)
    for k, column in enumerate(columns):
        words[:, k] = column
    digit_bytes = _WORDS.take(words).view(np.uint8)
    dot = digit_end - 13

    count, cols = rows.shape
    frame = np.zeros((count, cols, digit_end + max(len(sep), 1)), dtype=np.uint8)
    flat_frame = frame.reshape(n, -1)
    flat_frame[:, 0] = np.signbit(flat).view(np.uint8) * np.uint8(ord("-"))
    flat_frame[:, 1:dot] = digit_bytes[:, : dot - 1]
    flat_frame[:, dot] = ord(".")
    flat_frame[:, dot + 1 : digit_end] = digit_bytes[:, dot - 1 :]
    # each value's separator; the last of a row ends with "\n" instead
    frame[:, :-1, digit_end : digit_end + len(sep)] = np.frombuffer(sep, dtype=np.uint8)
    frame[:, -1, digit_end] = ord("\n")
    dragon4 = np.ones(n, dtype=bool)
    dragon4[lanes] = False
    flat_frame[dragon4, :digit_end] = 0
    flat_frame[dragon4, 0] = 1  # where Dragon4's text goes
    text = frame.tobytes().translate(None, b"\0").decode()
    if lanes.size < flat.size:
        pieces = text.split("\1")
        texts = _shortest(flat[dragon4])
        text = "".join([p for pair in zip(pieces, texts) for p in pair]) + pieces[-1]
    return text


def format_reals(values, sep: str = " ") -> list[str]:
    """Text of binary32 values: shortest decimals that parse back bit-exact.

    A 1-D array gives one string per value; a 2-D array gives one line per
    row, its values joined by sep.  Each value prints as numpy's Dragon4
    prints it in positional form (`np.format_float_positional(v,
    unique=True, trim="0")`): NaN as "nan" and infinities as "inf"/"-inf",
    whatever numpy's print options say.

    An array of _ARRAY_MIN values or more is printed a block of rows at a
    time (about _BLOCK_VALUES values, which bounds the memory) without
    Dragon4: the digits of each normal value in [1e-4, 1e9) whose
    significand is not a power of two are found by an exact binary64 search
    for the whole block at once (`_certified`), and the block's text is
    built in one byte frame.  The digits are not parsed back: the
    exhaustive sweep `tests/sweep_format.py` checks them against Dragon4
    once, for every such binary32.  Every other value (zero, subnormals,
    powers of two, values outside that range, nan and inf) is printed by
    Dragon4 under the same pinned print options.  Smaller arrays, and rows
    joined by a sep holding a control character, go to Dragon4 throughout.
    """
    arr = np.asarray(values, dtype=_F32)
    with np.printoptions(legacy=False):
        if arr.size < _ARRAY_MIN or arr.ndim > 1 and not sep.isprintable():
            if arr.ndim < 2:
                return _shortest(arr.reshape(-1))
            return [sep.join(_shortest(row)) for row in arr]
        rows = arr.reshape(-1, 1) if arr.ndim < 2 else arr
        step = max(1, _BLOCK_VALUES // rows.shape[1])
        sep_bytes = sep.encode()
        lines: list[str] = []
        for start in range(0, rows.shape[0], step):
            lines += _text(rows[start : start + step], sep_bytes)[:-1].split("\n")
        return lines


def format_real(value) -> str:
    """Shortest decimal string that parses back to the same binary32."""
    return format_reals([value])[0]


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """A trained linear SVM in the dense form the accelerator consumes.

    support_vectors is S x Fl binary32, alpha_y holds the S per-vector
    alpha*label weights, and bias is the trained threshold term b.  All
    stored reals are finite binary32.
    """

    support_vectors: np.ndarray
    alpha_y: np.ndarray
    bias: float

    def __post_init__(self):
        sv = _freeze(np.atleast_2d(self.support_vectors))
        ay = _freeze(np.atleast_1d(self.alpha_y))
        if sv.ndim != 2 or ay.ndim != 1:
            raise MalformedModel("support vectors must be 2-D and weights 1-D")
        if sv.shape[0] < 1 or sv.shape[1] < 1:
            raise MalformedModel("need at least one support vector and one feature")
        if sv.shape[0] != ay.shape[0]:
            raise MalformedModel(
                f"{sv.shape[0]} support vectors but {ay.shape[0]} alpha*y weights"
            )
        if not np.isfinite(sv).all() or not np.isfinite(ay).all():
            raise MalformedModel("non-finite value in model payload")
        b = float(_freeze(self.bias))
        if not np.isfinite(b):
            raise MalformedModel("bias must be finite")
        object.__setattr__(self, "support_vectors", sv)
        object.__setattr__(self, "alpha_y", ay)
        object.__setattr__(self, "bias", b)

    @property
    def sv_count(self) -> int:
        return self.support_vectors.shape[0]

    @property
    def feature_count(self) -> int:
        return self.support_vectors.shape[1]

    def __eq__(self, other):
        if not isinstance(other, TrainedModel):
            return NotImplemented
        return (
            _same_bits(self.support_vectors, other.support_vectors)
            and _same_bits(self.alpha_y, other.alpha_y)
            and _same_bits(_F32(self.bias), _F32(other.bias))
        )


@dataclass(frozen=True, eq=False)
class TestInstance:
    """One Fl-feature query vector, finite binary32."""

    __test__ = False  # not a pytest class, despite the name

    values: np.ndarray

    def __post_init__(self):
        vals = _freeze(np.atleast_1d(self.values))
        if vals.ndim != 1 or vals.shape[0] < 1:
            raise MalformedInstance("test instance must be a non-empty vector")
        if not np.isfinite(vals).all():
            raise MalformedInstance("non-finite value in test instance")
        object.__setattr__(self, "values", vals)

    @property
    def feature_count(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other):
        if not isinstance(other, TestInstance):
            return NotImplemented
        return _same_bits(self.values, other.values)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """An N x Fl binary32 feature matrix plus N ground-truth labels.

    features holds one finite binary32 row per instance; labels holds
    each row's label, +1 or -1.  instances views the rows as TestInstance
    objects, built on first use.
    """

    features: np.ndarray
    labels: tuple[int, ...]

    def __post_init__(self):
        x = _freeze(self.features)
        labels = tuple(self.labels)
        if x.ndim != 2:
            raise MalformedDataset("features must be an N x Fl matrix")
        if x.shape[0] != len(labels):
            raise MalformedDataset("instance/label count mismatch")
        if x.size == 0:
            raise MalformedDataset("dataset is empty")
        if any(l not in (1, -1) for l in labels):
            raise MalformedDataset("labels must be +1 or -1")
        if not np.isfinite(x).all():
            raise MalformedDataset("non-finite feature value")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", labels)

    @cached_property
    def instances(self) -> tuple[TestInstance, ...]:
        return tuple(map(TestInstance, self.features))

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other):
        if not isinstance(other, LabeledDataset):
            return NotImplemented
        return _same_bits(self.features, other.features) and self.labels == other.labels


@dataclass(frozen=True, eq=False)
class StreamFrame:
    """The word stream a host sends for one classification.

    Exactly S*Fl + 1 + S + Fl 32-bit words: support vectors row-major,
    bias, alpha*y weights, test vector, each word the little-endian bit
    pattern of a binary32.
    """

    words: np.ndarray

    def __post_init__(self):
        w = np.array(self.words, dtype="<u4", copy=True).reshape(-1)
        w.flags.writeable = False
        object.__setattr__(self, "words", w)

    @staticmethod
    def word_count(sv_count: int, feature_count: int) -> int:
        return sv_count * feature_count + 1 + sv_count + feature_count

    def __len__(self) -> int:
        return int(self.words.shape[0])

    def __eq__(self, other):
        if not isinstance(other, StreamFrame):
            return NotImplemented
        return np.array_equal(self.words, other.words)

    def to_bytes(self) -> bytes:
        return self.words.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "StreamFrame":
        if len(data) % 4 != 0:
            raise FrameLengthError((len(data) // 4 + 1) * 4, len(data), "bytes")
        return cls(np.frombuffer(data, dtype="<u4"))


# --------------------------------------------------------------------------
# text parsing helpers

def _parse_real(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"bad real {quote(token.strip())}") from None


def _midpoint_offset(flat: np.ndarray) -> np.ndarray:
    """Each binary64 magnitude's offset, in binary64 ulps, from the binary32 midpoint nearest it.

    In binary32's normal range a binary32 holds the top 24 of binary64's 53
    significand bits, so the midpoint between the two binary32 around a
    value has 29 low bits 1000...0, and the offset is the value's 29 low
    bits less 2**28: 0 on a midpoint, and in -2**28..2**28-1 otherwise.
    """
    return (flat.view(np.int64) & 0x1FFF_FFFF) - 0x1000_0000


def _binary32_ties(values: np.ndarray) -> np.ndarray:
    """Flat indices of the binary64 values lying halfway between two binary32.

    Half the binary32 spacing at |v| = m * 2**e (1/2 <= m < 1) is 2**(e-25),
    and 2**-150 throughout the subnormal range (e <= -125); a midpoint is an
    odd multiple of it.  No binary32 is finite at or above 2**128 (e > 128).
    In the normal range a midpoint's offset (`_midpoint_offset`) is 0, which
    filters the candidates cheaply first.
    """
    flat = values.ravel()
    maybe = np.flatnonzero((_midpoint_offset(flat) == 0) | (np.abs(flat) < 2.0**-126))
    e = np.frexp(flat[maybe])[1]
    halves = np.ldexp(np.abs(flat[maybe]), 25 - np.maximum(e, -125))
    return maybe[(e <= 128) & (halves % 2 == 1)]


def _binary32(values: np.ndarray, tokens) -> np.ndarray:
    """Round binary64 values that float() read from decimal text to binary32.

    Rounding a decimal to binary64 and then to binary32 gives its nearest
    binary32, except where the binary64 value is a binary32 midpoint: the
    decimal may then lie on either side.  Those values are settled exactly
    from their text; tokens() returns the text of every value, indexed like
    values.ravel(), and is called only when there is such a value.
    """
    with np.errstate(over="ignore"):  # callers refuse the infinities it makes
        out = values.astype(_F32)
    ties = _binary32_ties(values)
    if ties.size:
        # imported here: rarely needed, and together about 0.4 MB
        from decimal import Decimal
        from fractions import Fraction

        text, flat = tokens(), out.reshape(-1)
        for i in ties.tolist():
            mid, near = float(values.flat[i]), float(flat[i])  # compared in binary64
            exact = Fraction(Decimal(text[i]))
            if exact != mid and (exact > mid) == (mid > near):
                flat[i] = np.nextafter(flat[i], _F32(math.inf if mid > near else -math.inf))
    return out


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


# SVM-Light header layout: one value per line, in this order.
_HEADER_FIELDS = (
    "version banner",        # line 1, free text
    "kernel type",           # line 2
    "kernel degree",         # line 3
    "rbf gamma",             # line 4
    "poly coefficient s",    # line 5
    "poly coefficient r",    # line 6
    "kernel argument u",     # line 7, may be empty
    "highest feature index", # line 8
    "training document count",  # line 9
    "support vector count plus one",  # line 10
    "threshold b",           # line 11
)


def parse_svmlight_model(text: str) -> TrainedModel:
    """Parse the linear-kernel subset of the SVM-Light model format.

    Sparse idx:val pairs use 1-based feature indices and densify with
    zeros.  Any kernel type other than 0 raises UnsupportedKernel; a model
    of more than MAX_DENSE_VALUES support-vector values raises
    MalformedModel.
    """
    lines = text.splitlines()
    if len(lines) < len(_HEADER_FIELDS):
        raise MalformedModel(
            f"expected at least {len(_HEADER_FIELDS)} header lines, got {len(lines)}"
        )

    def header_value(idx: int) -> str:
        return _strip_comment(lines[idx]).strip()

    def header_int(idx: int) -> int:
        tok = header_value(idx)
        try:
            return int(tok)
        except ValueError:
            raise MalformedModel(
                f"bad {_HEADER_FIELDS[idx]} {quote(tok)}", line=idx + 1
            ) from None

    kernel = header_int(1)
    if kernel != 0:
        raise UnsupportedKernel(
            f"unsupported kernel type {kernel} (only linear, type 0)"
        )
    feature_count = header_int(7)
    if feature_count < 1:
        raise MalformedModel("highest feature index must be >= 1", line=8)
    sv_plus_one = header_int(9)
    sv_count = sv_plus_one - 1
    if sv_count < 1:
        raise MalformedModel("support vector count must be >= 1", line=10)
    try:
        bias = _parse_real(header_value(10))
    except ValueError as exc:
        raise MalformedModel(str(exc), line=11) from None
    if not math.isfinite(bias):
        raise MalformedModel("threshold must be finite", line=11)

    # count the body lines before the header's S sizes any allocation
    body = [
        (lineno0 + 1, line)
        for lineno0 in range(len(_HEADER_FIELDS), len(lines))
        if (line := _strip_comment(lines[lineno0])) and not line.isspace()
    ]
    if len(body) > sv_count:
        raise MalformedModel(
            f"more than the declared {sv_count} support vector lines",
            line=body[sv_count][0],
        )
    if len(body) != sv_count:
        raise MalformedModel(f"declared {sv_count} support vectors, found {len(body)}")
    # the body confirms S but not Fl, so the dense size needs a stated bound
    if too_large := _dense_fault(sv_count, feature_count):
        raise MalformedModel(too_large, line=8)

    table = _dense_body([line.strip() for _, line in body], feature_count)
    if table is None:
        alpha_y, sv = _svmlight_lines(body, feature_count)
    else:
        alpha_y, sv = table[:, 0], _binary32(table[:, 1:], lambda: _pair_values(body))
    w32 = _binary32(
        np.concatenate([[bias], alpha_y]),
        lambda: [header_value(10)] + [ln.split()[0] for _, ln in body],
    )
    return TrainedModel(sv, w32[1:], float(w32[0]))


def _pair_values(body: list[tuple[int, str]]) -> list[str]:
    """The value text of every idx:val pair of the body lines, in order."""
    return [p.partition(":")[2] for _, ln in body for p in ln.split()[1:]]


def _svmlight_lines(body: list[tuple[int, str]], feature_count: int):
    """The body's binary64 weights and binary32 S x Fl matrix, read line by line.

    One pass reads each token once and checks it as it goes: the weight
    and its finiteness, then for each pair in turn its ":", its index, the
    index's range 1..Fl and repeats, its value and the value's finiteness.
    The first fault raises MalformedModel naming its line.
    """
    weights, vals = array("d"), array("d")  # C doubles: a list holds objects
    where = array("q")  # each pair's flat position in the S x Fl matrix
    for lineno, line in body:
        tokens = line.split()
        try:
            weight = _parse_real(tokens[0])
            if not math.isfinite(weight):
                raise ValueError("non-finite alpha*y weight")
            start = len(weights) * feature_count - 1  # index 1 is the row's first column
            seen: set[int] = set()
            for pair in tokens[1:]:
                idx_s, sep, val_s = pair.partition(":")
                if not sep:
                    raise ValueError(f"expected idx:val pair, got {quote(pair)}")
                try:
                    idx = int(idx_s)
                except ValueError:
                    raise ValueError(f"bad feature index {quote(idx_s)}") from None
                if not 1 <= idx <= feature_count:
                    raise ValueError(f"feature index {idx} outside 1..{feature_count}")
                if idx in seen:
                    raise ValueError(f"duplicate feature index {idx}")
                seen.add(idx)
                val = _parse_real(val_s)
                if not math.isfinite(val):
                    raise ValueError("non-finite feature value")
                where.append(start + idx)
                vals.append(val)
        except ValueError as exc:
            raise MalformedModel(str(exc), line=lineno) from None
        weights.append(weight)

    sv = np.zeros((len(body), feature_count), dtype=_F32)
    sv.reshape(-1)[np.frombuffer(where, dtype=np.int64)] = _binary32(
        np.frombuffer(vals), lambda: _pair_values(body)
    )
    return np.frombuffer(weights), sv


# A canonical dense body holds printable ASCII and the separators " :\n".
_BLOCK_BYTES = 1 << 16  # body text checked and read at a time
_PRINTABLE = bytes(range(0x20, 0x7F)) + b"\n"
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b" :\n")


def _dense_body(rows: list[str], feature_count: int) -> np.ndarray | None:
    """The (S, 1+Fl) weights and values of a canonical dense body, read in C.

    rows are the body lines without comment and surrounding whitespace.  A
    body is canonical dense when every row reads `w 1:v 2:v ... Fl:v`: single
    spaces, indices in order and spelled as `str` spells them, printable
    ASCII only.  There the reader and the per-line path read the same
    tokens, and the reader's values are `float`'s.  Any other body, or one
    the reader refuses or reads as non-finite, returns None, so the per-line
    path reads it and names its first faulty line.  The rows are checked and
    read a block of about _BLOCK_BYTES at a time, which bounds the memory;
    a block holds at least one row.
    """
    step = max(1, _BLOCK_BYTES // (len(rows[0]) + 1))
    table = None
    per_row = b" :" * feature_count + b"\n"
    for start in range(0, len(rows), step):
        block = "\n".join(rows[start : start + step]) + "\n"
        count = min(step, len(rows) - start)
        if not block.isascii():
            return None
        text = block.encode("ascii")
        if text.translate(None, _PRINTABLE):  # a control character
            return None
        if text.translate(None, _NOT_SEPARATOR) != per_row * count:
            return None
        if table is None:
            table = np.empty((len(rows), feature_count + 1))
            at_colon, offset, want = _index_prefixes(feature_count)
        raw = bytearray(text)
        buf = np.frombuffer(raw, dtype=np.uint8)
        # the bytes of each " k:" prefix, found from the colon that ends it
        at = np.flatnonzero(buf == ord(":")).reshape(count, -1)[:, at_colon] + offset
        if not (buf[at] == want).all():
            return None
        buf[at] = ord(" ")
        whole = raw.decode("ascii")
        if _long_fractions(whole) and _cut(raw):
            values = _read(raw.decode("ascii").split("\n"), original=whole)
        else:
            values = _read(whole.split("\n"))
        if values is None or values.shape != (count, feature_count + 1):
            return None  # an empty value leaves its row a value short
        table[start : start + count] = values
    return table


def _index_prefixes(feature_count: int):
    """Where the bytes " k:" of each index k = 1..Fl lie: colon, offset, byte.

    Each prefix byte is taken from the row's colon number at_colon, at
    offset from it (the colon itself at 0), and must read want.
    """
    texts = [b" %d:" % k for k in range(1, feature_count + 1)]
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=feature_count)
    at_colon = np.repeat(np.arange(feature_count), lengths)
    ends = np.cumsum(lengths) - 1
    offset = np.arange(at_colon.size) - np.repeat(ends, lengths)
    return at_colon, offset, np.frombuffer(b"".join(texts), dtype=np.uint8)


def _matrix(text: str, delimiter: str | None = None) -> tuple[np.ndarray | None, list[str] | None]:
    """The text's rows of finite reals as a binary64 matrix read in C, and its lines if cut.

    Rows are the text's lines that hold more than whitespace, the lines the
    per-line readers read.  Values are cut at whitespace, or at delimiter
    and stripped of the whitespace around them.  The matrix is None when no
    line is left, when the reader refuses the rows (a token that is no real,
    ragged rows), when a value is not finite, or when the text holds any of
    U+001C..U+001F: the reader strips those around a cell, `float` does
    not.  The caller then reads that one file line by line, which names the
    first faulty line.  A text with long fractions is read cut (`_reader_lines`).
    """
    if any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return None, None
    lines, cut = _reader_lines(text)
    if not lines:  # the reader warns on a blank text
        return None, None
    return _read(lines, delimiter, text if cut else None), lines if cut else None


def _read(lines: list[str], delimiter: str | None = None, original: str | None = None):
    """The reader's binary64 rows of lines, or None if it refuses them or a value is not finite.

    Empty lines are skipped.  original, when given, is the text of the lines
    before their long fractions were cut: each value the cut could have
    moved to another binary32 is read again from its token there.
    """
    try:
        values = np.loadtxt(
            lines, dtype=np.float64, delimiter=delimiter, comments=None, ndmin=2
        )
    except ValueError:
        return None
    if original is not None:
        flat = values.reshape(-1)
        field = flat.view(np.int64) >> 52 & 0x7FF
        again = np.flatnonzero(np.abs(_midpoint_offset(flat)) <= _CUT_ULPS.take(field))
        if again.size:
            whole = list(filter(str.strip, original.splitlines()))
            for i in again.tolist():
                row, column = divmod(i, values.shape[1])
                flat[i] = float(whole[row].split(delimiter)[column])
    return values if np.isfinite(values).all() else None


# -- cutting long fractions
#
# The reader converts a decimal of at most 15 significant digits through an
# exact fast path (Clinger, "How to Read Floating Point Numbers Accurately",
# PLDI 1990), and a longer one, such as the 17 digits `repr` writes, through
# a bignum correction (Gay, "Correctly Rounded Binary-Decimal and
# Decimal-Binary Conversions", 1990) that is two to three times slower.  So
# a text with long fractions is read with every fraction digit past the
# _KEEP-th set to "0", which the reader drops.  That moves a decimal D toward
# zero by less than 1e-14, and the value x read from the cut text lies within
# 1e-14 + 1/2 ulp of D: x and D round to the same binary32 unless a binary32
# midpoint lies within that distance of x, further from zero.  Each value
# that near a midpoint (_CUT_ULPS) is read again from its original token, so
# every binary32 read is the one the whole decimal gives.

_KEEP = 14  # fraction digits a cut keeps
_LONG_FRACTION = re.compile(r"\.[0-9]{%d}" % (_KEEP + 1))
_PEEK = 4096  # characters of a text searched for a long fraction
_CUT_MIN = 1 << 13  # characters; a shorter text reads faster whole than cut
_GAP = re.compile(rb"[\s,]")  # a byte no real spans, where a piece of a cut may end
_LINE_BREAK = re.compile(r"[\n\r\v\f]")  # str.splitlines' ASCII breaks that _matrix reads


def _cut_ulps() -> np.ndarray:
    """Per binary64 exponent field, how near a binary32 midpoint a cut value is read again.

    The distance is in binary64 ulps, the unit of `_midpoint_offset`.  In
    field f's binade an ulp is 2**(f - 1075), so the 1e-14 a cut moves a
    decimal is ldexp(1e-14, 1075 - f) ulps; 2 more cover the reader's
    rounding.  Outside binary32's normal range [2**-126, 2**128), fields
    897..1150, no offset applies and every value is read again.
    """
    ulps = np.full(2048, np.inf)
    field = np.arange(897, 1151)
    ulps[field] = np.ldexp(1e-14, 1075 - field) + 2
    return ulps


_CUT_ULPS = _cut_ulps()


def _long_fractions(text: str) -> bool:
    """Whether text is cut before it is read.

    It is when it is ASCII, at least _CUT_MIN characters long (the cut costs
    about 40 us a text, which a shorter one does not win back) and holds a
    fraction of more than _KEEP digits in its first _PEEK characters.  The
    texts this module emits hold at most 9 significant digits and are not.
    """
    return (
        len(text) >= _CUT_MIN
        and text.isascii()
        and _LONG_FRACTION.search(text, 0, _PEEK) is not None
    )


def _reader_lines(text: str) -> tuple[list[str], bool]:
    """The text's non-blank lines, long fractions cut (`_long_fractions`); whether any was cut.

    A text with long fractions is cut and split by `str.splitlines` a block at a
    time, which bounds the memory the cut takes; a block ends at the first line
    break _BLOCK_BYTES past its start (a CR LF split there adds a blank line).
    """
    if not _long_fractions(text):
        return list(filter(str.strip, text.splitlines())), False
    lines: list[str] = []
    cut, start = False, 0
    while start < len(text):
        brk = _LINE_BREAK.search(text, start + _BLOCK_BYTES)
        end = brk.end() if brk else len(text)
        raw = bytearray(text[start:end], "ascii")
        cut |= _cut(raw)
        lines += filter(str.strip, raw.decode("ascii").splitlines())
        start = end
    return lines, cut


def _cut(raw: bytearray) -> bool:
    """Set every fraction digit of ASCII text past the _KEEP-th to "0", in place; whether any was.

    A long text is cut a piece of one to two _BLOCK_BYTES at a time, which keeps a
    `_reader_lines` block whole; each ends at whitespace or a comma, bounding the memory.
    """
    buf = np.frombuffer(raw, dtype=np.uint8)
    cut, start = False, 0
    while start < len(raw):
        gap = _GAP.search(raw, start + 2 * _BLOCK_BYTES)
        end = gap.end() if gap else len(raw)
        cut |= _cut_piece(buf[start:end])
        start = end
    return cut


def _cut_piece(buf: np.ndarray) -> bool:
    """Set every fraction digit past the _KEEP-th to "0", in place; whether the piece was cut.

    A fraction is the run of digits after a ".".  The cut sets each digit
    that ends a run of _KEEP + 1 digits, which is right only when every such
    run is a fraction, and only when what follows the fraction does not
    scale it up.  So a piece is left whole when a run of more than _KEEP
    digits starts after anything but a "." (an integer part or exponent
    that long), or when an exponent other than a negative one follows a
    long fraction.  Every step works on the whole piece at once.
    """
    runs, width = (buf - ord("0")) < 10, 1  # runs[p]: the width bytes from p are all digits
    while width < _KEEP + 1:
        step = min(width, _KEEP + 1 - width)
        runs, width = runs[:-step] & runs[step:], width + step
    if not runs.any():
        return False
    dot_or_digit = (buf - ord(".")) < 12  # "/" too: no real holds it
    if runs[0] or (runs[1:] > dot_or_digit[: -_KEEP - 1]).any():
        return False
    exponent = (buf | 0x20) == ord("e")
    if exponent.any():
        exponent[:-1] &= buf[1:] != ord("-")  # a negative one only scales the cut down
        if (runs[:-1] & exponent[_KEEP + 1 :]).any():
            return False
    tail = buf[_KEEP:]  # tail[p] is the last digit of the run runs[p] marks
    tail -= (tail - ord("0")) * runs
    return True


def _parse_real_lines(text: str, fault):
    """Yield (lineno, [floats]) for every non-blank line, finiteness-checked.

    fault(lineno, message) builds the exception raised for a faulty line.
    """
    for lineno0, line in enumerate(text.splitlines()):
        tokens = line.split()
        if not tokens:
            continue
        try:
            vals = list(map(_parse_real, tokens))
        except ValueError as exc:
            raise fault(lineno0 + 1, str(exc)) from None
        if not all(map(math.isfinite, vals)):
            raise fault(lineno0 + 1, "non-finite value")
        yield lineno0 + 1, vals


def _reals(text: str, fault) -> np.ndarray:
    """The values of a flat file, alpha or test instance, as binary32, in order.

    Line breaks carry no meaning there, so the C reader reads the tokens as
    one row; a text it cannot read goes line by line, where fault(lineno,
    message) builds the exception for the first faulty line.
    """
    values, _ = _matrix(" ".join(text.split()))
    if values is None:
        values = np.array(
            [v for _lineno, vals in _parse_real_lines(text, fault) for v in vals],
            dtype=np.float64,
        )
    return _binary32(values.reshape(-1), text.split)


def _svs_lines(text: str) -> np.ndarray:
    """The support-vector matrix read line by line, each row as wide as the first."""
    rows: list[list[float]] = []
    for lineno, vals in _parse_real_lines(text, _model_fault("support vectors")):
        if rows and len(vals) != len(rows[0]):
            raise MalformedModel(
                f"support vectors: expected {len(rows[0])} values, got {len(vals)}",
                line=lineno,
            )
        rows.append(vals)
    if not rows:
        raise MalformedModel("support vectors: no rows")
    return np.array(rows, dtype=np.float64)


def _model_fault(what: str):
    return lambda lineno, message: MalformedModel(f"{what}: {message}", line=lineno)


def _instance_fault(lineno: int, message: str) -> MalformedInstance:
    return MalformedInstance(f"test instance line {lineno}: {message}")


def parse_native_model(svs_text: str, alpha_text: str) -> TrainedModel:
    """Parse the two-file plain-text form.

    svs_text holds S rows of Fl reals; alpha_text holds 1+S reals, the
    bias first and then the S alpha*y weights, on as many lines as it likes.
    """
    sv, _ = _matrix(svs_text)
    if sv is None:
        sv = _svs_lines(svs_text)
    weights = _reals(alpha_text, _model_fault("weights"))
    if weights.size != sv.shape[0] + 1:
        raise MalformedModel(
            f"weights: expected bias plus {sv.shape[0]} alpha*y values, got {weights.size}"
        )
    return TrainedModel(_binary32(sv, svs_text.split), weights[1:], float(weights[0]))


def parse_test_instance(text: str, feature_count: int | None = None) -> TestInstance:
    """Parse whitespace-separated reals into a TestInstance."""
    vals = _reals(text, _instance_fault)
    if not vals.size:
        raise MalformedInstance("test instance: no values")
    if feature_count is not None and vals.size != feature_count:
        raise MalformedInstance(
            f"test instance has {vals.size} values, model expects {feature_count}"
        )
    return TestInstance(vals)


def load_dataset(text: str) -> LabeledDataset:
    """Parse labeled CSV: Fl feature columns then a +1/-1 label column."""
    table, cut = _matrix(text, ",")
    # a cut keeps cell lengths; one it moves onto or off +/-1 is longer than "1." + _KEEP digits
    if table is not None and cut and any(len(ln) - ln.rfind(",") > _KEEP + 3 for ln in cut):
        table[:, -1] = _whole_labels(text)
    if table is None or table.shape[1] < 2 or not (np.abs(table[:, -1]) == 1.0).all():
        table = _dataset_lines(text)
    rows = _binary32(
        table[:, :-1],
        lambda: [c for ln in text.splitlines() if ln.strip() for c in ln.split(",")[:-1]],
    )
    return LabeledDataset(rows, table[:, -1].astype(int).tolist())


def _whole_labels(text: str) -> list[float]:
    """Each non-blank CSV line's last cell, read whole: a cut does not keep a label's +/-1."""
    return [float(ln.rpartition(",")[2]) for ln in text.splitlines() if ln.strip()]


def _dataset_lines(text: str) -> np.ndarray:
    """load_dataset's (N, Fl+1) table, labels last, read line by line with `float`."""
    rows: list[list[float]] = []
    for lineno0, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        lineno = lineno0 + 1
        cells = line.split(",")  # float() ignores the whitespace around a cell
        if len(cells) < 2:
            raise MalformedDataset(f"line {lineno}: need features plus a label column")
        if rows and len(cells) != len(rows[0]):
            raise MalformedDataset(
                f"line {lineno}: expected {len(rows[0])} columns, got {len(cells)}"
            )
        try:
            row = list(map(_parse_real, cells))
        except ValueError as exc:
            raise MalformedDataset(f"line {lineno}: {exc}") from None
        if not all(map(math.isfinite, row[:-1])):
            raise MalformedDataset(f"line {lineno}: non-finite feature value")
        if row[-1] not in (1.0, -1.0):
            raise MalformedDataset(f"line {lineno}: label must be +1 or -1")
        rows.append(row)
    if not rows:
        raise MalformedDataset("dataset is empty")
    return np.array(rows, dtype=np.float64)


# --------------------------------------------------------------------------
# emitters (inverse of the parsers above; SVM-Light emission is not needed)

def emit_native_model(model: TrainedModel) -> tuple[str, str]:
    """Render (svs_text, alpha_text) such that parse_native_model round-trips."""
    weights = np.concatenate([[_F32(model.bias)], model.alpha_y])
    return (
        "\n".join(format_reals(model.support_vectors)) + "\n",
        "\n".join(format_reals(weights)) + "\n",
    )


def emit_test_instance(instance: TestInstance) -> str:
    return " ".join(format_reals(instance.values)) + "\n"


def emit_dataset(dataset: LabeledDataset) -> str:
    rows = format_reals(dataset.features, ",")
    return "".join(f"{row},{label:d}\n" for row, label in zip(rows, dataset.labels))


# --------------------------------------------------------------------------
# stream frames

def emit_stream(model: TrainedModel, test: TestInstance) -> StreamFrame:
    """Serialize one classification request into transfer order."""
    if test.feature_count != model.feature_count:
        raise DimensionError("model", model.feature_count, "instance", test.feature_count)
    words = np.concatenate(
        [
            model.support_vectors.reshape(-1),
            np.array([model.bias], dtype=_F32),
            model.alpha_y,
            test.values,
        ],
        dtype="<f4",
    ).view("<u4")
    words.flags.writeable = False
    frame = object.__new__(StreamFrame)  # the one copy, stored as __post_init__ stores it
    frame.__dict__["words"] = words
    return frame


def split_frame(frame: StreamFrame, sv_count: int, feature_count: int):
    """Slice a frame into (sv_matrix, bias, alpha_y, test) binary32 views.

    Length is validated; word contents are not, so non-finite bit patterns
    pass through untouched (the accelerator model propagates them).
    """
    expected = StreamFrame.word_count(sv_count, feature_count)
    if len(frame) != expected:
        raise FrameLengthError(expected=expected, actual=len(frame))
    reals = frame.words.view("<f4")
    n_sv = sv_count * feature_count
    sv = reals[:n_sv].reshape(sv_count, feature_count)
    bias = reals[n_sv]
    alpha_y = reals[n_sv + 1 : n_sv + 1 + sv_count]
    test = reals[n_sv + 1 + sv_count :]
    return sv, bias, alpha_y, test


def parse_stream(
    frame: StreamFrame, sv_count: int, feature_count: int
) -> tuple[TrainedModel, TestInstance]:
    """Decode a frame back into validated model and instance objects."""
    sv, bias, alpha_y, test = split_frame(frame, sv_count, feature_count)
    return TrainedModel(sv, alpha_y, float(bias)), TestInstance(test)


# --------------------------------------------------------------------------
# synthetic fixtures

def make_synthetic(
    sv_count: int, feature_count: int, seed: int, instances: int = 32
) -> tuple[TrainedModel, LabeledDataset]:
    """Deterministically generate a model plus a dataset it classifies 100%.

    All reals are drawn uniform in [-1, 1] (bias in [-1/2, 1/2]).  Test
    vectors are rejection-sampled until the double-precision decision
    value clears both a relative margin of 1e-3 and twice the worst-case
    binary32 accumulation error bound, so the binary32 pipeline provably
    assigns every generated label correctly.  A model of more than
    MAX_DENSE_VALUES values is refused before anything is allocated.
    """
    if sv_count < 1 or feature_count < 1 or instances < 1:
        raise ValueError("sv_count, feature_count, and instances must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if too_large := _dense_fault(sv_count, feature_count):
        raise ValueError(too_large)
    rng = np.random.default_rng(seed)
    # u = half the binary32 epsilon; gamma_n ~ n*u bounds n chained roundings
    unit = float(np.finfo(np.float32).eps) / 2.0
    gamma = (sv_count + feature_count + 2) * unit

    for _model_attempt in range(64):
        sv = rng.uniform(-1.0, 1.0, (sv_count, feature_count)).astype(_F32)
        ay = rng.uniform(-1.0, 1.0, sv_count).astype(_F32)
        bias = float(_F32(rng.uniform(-0.5, 0.5)))
        w = sv.astype(np.float64).T @ ay.astype(np.float64)
        abs_col = np.abs(sv.astype(np.float64)).T @ np.abs(ay.astype(np.float64))

        picked: list[np.ndarray] = []
        labels: list[int] = []
        tries = 0
        while len(picked) < instances and tries < 200 * instances:
            tries += 1
            x = rng.uniform(-1.0, 1.0, feature_count).astype(_F32)
            x64 = x.astype(np.float64)
            d = float(w @ x64 - bias)
            scale = float(abs_col @ np.abs(x64)) + abs(bias)
            margin = max(1e-3 * (1.0 + abs(d)), 2.0 * gamma * scale)
            if abs(d) >= margin:
                picked.append(x)
                labels.append(1 if d >= 0.0 else -1)
        if len(picked) == instances:
            return TrainedModel(sv, ay, bias), LabeledDataset(np.array(picked), labels)
    raise ValueError(
        f"could not find separable fixtures for S={sv_count}, Fl={feature_count}"
    )
