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
binary32 exactly once: a file's binary64 values (one `float` pass and one
finiteness check per line) go to binary32 in one array step, and a value
that lands exactly on a binary32 midpoint on the way is settled from its
decimal text.  Emitters format whole arrays (`format_reals`) with the
shortest decimal that parses back to the same binary32, so emit/parse
round-trips are bit-exact.  No body line confirms an SVM-Light header's
"highest feature index", so a model above MAX_DENSE_VALUES support-vector
values is refused before its dense matrix is allocated.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .errors import (
    DimensionError,
    FrameLengthError,
    MalformedDataset,
    MalformedInstance,
    MalformedModel,
    UnsupportedKernel,
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


def _freeze(arr: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # callers refuse the infinities it makes
        out = np.array(arr, dtype=_F32, order="C", copy=True)
    out.flags.writeable = False
    return out


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two binary32 arrays hold the same shape and bit patterns."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


def _shortest(values: np.ndarray) -> list[str]:
    """Shortest round-trip decimal of each value of a 1-D binary32 array.

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


def format_reals(values, sep: str = " ") -> list[str]:
    """Text of binary32 values: shortest decimals that parse back bit-exact.

    A 1-D array gives one string per value; a 2-D array gives one line per
    row, its values joined by sep (formatted a row at a time, so no
    matrix-sized string array is built).  NaN prints as "nan" and
    infinities as "inf"/"-inf", whatever numpy's print options say.
    """
    arr = np.asarray(values, dtype=_F32)
    with np.printoptions(legacy=False):
        if arr.ndim < 2:
            return _shortest(arr.reshape(-1))
        return [sep.join(_shortest(row)) for row in arr]


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

    __hash__ = None


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

    __hash__ = None


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

    __hash__ = None


@dataclass(frozen=True, eq=False)
class StreamFrame:
    """The word stream a host sends for one classification.

    Exactly S*Fl + 1 + S + Fl 32-bit words: support vectors row-major,
    bias, alpha*y weights, test vector, each word the little-endian bit
    pattern of a binary32.
    """

    words: np.ndarray

    def __post_init__(self):
        w = np.array(self.words, dtype="<u4", copy=True)
        if w.ndim != 1:
            w = w.reshape(-1).copy()
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

    __hash__ = None

    def to_bytes(self) -> bytes:
        return self.words.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "StreamFrame":
        if len(data) % 4 != 0:
            raise FrameLengthError(expected=(len(data) // 4 + 1) * 4, actual=len(data))
        return cls(np.frombuffer(data, dtype="<u4"))


# --------------------------------------------------------------------------
# text parsing helpers

def _parse_real(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"bad real {token.strip()!r}") from None


def _parse_reals(tokens) -> list[float]:
    """float() of every token; the ValueError names the first one that is no real."""
    try:
        return list(map(float, tokens))
    except ValueError:
        return list(map(_parse_real, tokens))  # raises at the first bad token


def _all_finite(vals: list[float]) -> bool:
    # a finite sum has only finite terms; an overflowing one needs a closer look
    return math.isfinite(sum(vals)) or all(map(math.isfinite, vals))


def _binary32_ties(values: np.ndarray) -> np.ndarray:
    """Flat indices of the binary64 values lying halfway between two binary32.

    Half the binary32 spacing at |v| = m * 2**e (1/2 <= m < 1) is 2**(e-25),
    and 2**-150 throughout the subnormal range (e <= -125); a midpoint is an
    odd multiple of it.  No binary32 is finite at or above 2**128 (e > 128).
    In the normal range a midpoint's 29 low significand bits read 1000...0,
    which filters the candidates cheaply first.
    """
    flat = values.ravel()
    maybe = np.flatnonzero(
        ((flat.view(np.uint64) & 0x1FFF_FFFF) == 0x1000_0000) | (np.abs(flat) < 2.0**-126)
    )
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


def _svmlight_fault(tokens: list[str], feature_count: int) -> str:
    """The message for the first fault of an SVM-Light body line that has one."""
    try:
        weight = _parse_real(tokens[0])
    except ValueError as exc:
        return str(exc)
    if not math.isfinite(weight):
        return "non-finite alpha*y weight"
    seen: set[int] = set()
    for pair in tokens[1:]:
        idx_s, sep, val_s = pair.partition(":")
        if not sep:
            return f"expected idx:val pair, got {pair!r}"
        try:
            idx = int(idx_s)
        except ValueError:
            return f"bad feature index {idx_s!r}"
        if not 1 <= idx <= feature_count:
            return f"feature index {idx} outside 1..{feature_count}"
        if idx in seen:
            return f"duplicate feature index {idx}"
        seen.add(idx)
        try:
            val = _parse_real(val_s)
        except ValueError as exc:
            return str(exc)
        if not math.isfinite(val):
            return "non-finite feature value"
    raise AssertionError("line has no fault")


def _svmlight_pairs(tokens: list[str]) -> list[str]:
    """idx, ":", val, idx, ":", val, ... of a body line's pairs, split in one pass."""
    return list(chain.from_iterable(map(str.partition, tokens[1:], repeat(":"))))


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
                f"bad {_HEADER_FIELDS[idx]} {tok!r}", line=idx + 1
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
    if sv_count * feature_count > MAX_DENSE_VALUES:
        raise MalformedModel(
            f"{sv_count} support vectors x {feature_count} features exceeds"
            f" {MAX_DENSE_VALUES} values",
            line=8,
        )

    weights = array("d", [bias])
    counts: list[int] = []
    cols, vals = array("i"), array("d")  # S x Fl fits a C int
    for lineno, line in body:
        tokens = line.split()
        parts = _svmlight_pairs(tokens)
        try:
            weight = float(tokens[0])
            idx = list(map(int, parts[0::3]))  # a pair without ":" has val "": no real
            line_vals = list(map(float, parts[2::3]))
            ok = (
                math.isfinite(weight)
                and (not idx or (min(idx) >= 1 and max(idx) <= feature_count))
                and len(set(idx)) == len(idx)
                and _all_finite(line_vals)
            )
        except ValueError:
            ok = False
        if not ok:
            raise MalformedModel(_svmlight_fault(tokens, feature_count), line=lineno)
        weights.append(weight)
        counts.append(len(idx))
        cols.fromlist(idx)
        vals.fromlist(line_vals)

    w32 = _binary32(
        np.frombuffer(weights), lambda: [header_value(10)] + [ln.split()[0] for _, ln in body]
    )
    # each pair's flat position: its row's start, then its 1-based column
    starts = np.arange(-1, sv_count * feature_count - 1, feature_count, dtype=np.intc)
    where = np.repeat(starts, counts)
    where += np.frombuffer(cols, dtype=np.intc)
    sv = np.zeros((sv_count, feature_count), dtype=_F32)
    sv.reshape(-1)[where] = _binary32(
        np.frombuffer(vals),
        lambda: [p for _, ln in body for p in _svmlight_pairs(ln.split())[2::3]],
    )
    return TrainedModel(sv, w32[1:], float(w32[0]))


def _parse_real_lines(text: str, fault):
    """Yield (lineno, [floats]) for every non-blank line, finiteness-checked.

    fault(lineno, message) builds the exception raised for a faulty line.
    """
    for lineno0, line in enumerate(text.splitlines()):
        tokens = line.split()
        if not tokens:
            continue
        try:
            vals = _parse_reals(tokens)
        except ValueError as exc:
            raise fault(lineno0 + 1, str(exc)) from None
        if not _all_finite(vals):
            raise fault(lineno0 + 1, "non-finite value")
        yield lineno0 + 1, vals


def _model_fault(what: str):
    return lambda lineno, message: MalformedModel(f"{what}: {message}", line=lineno)


def _instance_fault(lineno: int, message: str) -> MalformedInstance:
    return MalformedInstance(f"test instance line {lineno}: {message}")


def parse_native_model(svs_text: str, alpha_text: str) -> TrainedModel:
    """Parse the two-file plain-text form.

    svs_text holds S rows of Fl reals; alpha_text holds 1+S reals, the
    bias first and then the S alpha*y weights.
    """
    rows, width, values = 0, None, array("d")
    for lineno, vals in _parse_real_lines(svs_text, _model_fault("support vectors")):
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise MalformedModel(
                f"support vectors: expected {width} values, got {len(vals)}", line=lineno
            )
        rows += 1
        values.fromlist(vals)
    if not rows:
        raise MalformedModel("support vectors: no rows")

    weights = array("d")
    for _lineno, vals in _parse_real_lines(alpha_text, _model_fault("weights")):
        weights.fromlist(vals)
    if len(weights) != rows + 1:
        raise MalformedModel(
            f"weights: expected bias plus {rows} alpha*y values, got {len(weights)}"
        )
    sv = _binary32(np.frombuffer(values).reshape(rows, width), svs_text.split)
    w32 = _binary32(np.frombuffer(weights), alpha_text.split)
    return TrainedModel(sv, w32[1:], float(w32[0]))


def parse_test_instance(text: str, feature_count: int | None = None) -> TestInstance:
    """Parse whitespace-separated reals into a TestInstance."""
    vals = array("d")
    for _lineno, line_vals in _parse_real_lines(text, _instance_fault):
        vals.fromlist(line_vals)
    if not vals:
        raise MalformedInstance("test instance: no values")
    if feature_count is not None and len(vals) != feature_count:
        raise MalformedInstance(
            f"test instance has {len(vals)} values, model expects {feature_count}"
        )
    return TestInstance(_binary32(np.frombuffer(vals), text.split))


def load_dataset(text: str) -> LabeledDataset:
    """Parse labeled CSV: Fl feature columns then a +1/-1 label column."""
    features = array("d")
    labels = []
    width = None
    for lineno0, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        lineno = lineno0 + 1
        cells = line.split(",")  # float() ignores the whitespace around a cell
        if len(cells) < 2:
            raise MalformedDataset(f"line {lineno}: need features plus a label column")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise MalformedDataset(
                f"line {lineno}: expected {width} columns, got {len(cells)}"
            )
        try:
            vals = _parse_reals(cells[:-1])
            raw_label = _parse_real(cells[-1])
        except ValueError as exc:
            raise MalformedDataset(f"line {lineno}: {exc}") from None
        if not _all_finite(vals):
            raise MalformedDataset(f"line {lineno}: non-finite feature value")
        if raw_label not in (1.0, -1.0):
            raise MalformedDataset(f"line {lineno}: label must be +1 or -1")
        features.fromlist(vals)
        labels.append(int(raw_label))
    if not labels:
        raise MalformedDataset("dataset is empty")
    rows = _binary32(
        np.frombuffer(features).reshape(len(labels), width - 1),
        lambda: [c for ln in text.splitlines() if ln.strip() for c in ln.split(",")[:-1]],
    )
    return LabeledDataset(rows, labels)


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
        raise DimensionError(
            f"model has {model.feature_count} features, instance has {test.feature_count}"
        )
    payload = np.concatenate(
        [
            model.support_vectors.reshape(-1),
            np.array([model.bias], dtype=_F32),
            model.alpha_y,
            test.values,
        ]
    ).astype("<f4")
    return StreamFrame(payload.view("<u4"))


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
    if sv_count * feature_count > MAX_DENSE_VALUES:
        raise ValueError(
            f"{sv_count} support vectors x {feature_count} features exceeds"
            f" {MAX_DENSE_VALUES} values"
        )
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
