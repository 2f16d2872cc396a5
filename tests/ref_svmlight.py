"""Reference for the SVM-Light model parser.

The parser as it was when every body line was read in Python: each line's
tokens are split, its weight, indices and values read with `float` and
`int`, checked, and scattered into a zeroed matrix, so the first faulty
line is the one reported.  The rounding to binary32 is the package's own
(model_io._binary32); only the binary64 read is kept here.  A quoted token
longer than 40 characters is cut to 40 plus "…", as every message does.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, repeat

import numpy as np

from svmsoc.errors import MalformedModel, UnsupportedKernel
from svmsoc.model_io import MAX_DENSE_VALUES, TrainedModel, _binary32

_HEADER_FIELDS = (
    "version banner",
    "kernel type",
    "kernel degree",
    "rbf gamma",
    "poly coefficient s",
    "poly coefficient r",
    "kernel argument u",
    "highest feature index",
    "training document count",
    "support vector count plus one",
    "threshold b",
)


def _quote(token: str) -> str:
    return repr(token if len(token) <= 40 else token[:40] + "…")


def _parse_real(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"bad real {_quote(token.strip())}") from None


def _all_finite(vals: list[float]) -> bool:
    return math.isfinite(sum(vals)) or all(map(math.isfinite, vals))


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _fault(tokens: list[str], feature_count: int) -> str:
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
            return f"expected idx:val pair, got {_quote(pair)}"
        try:
            idx = int(idx_s)
        except ValueError:
            return f"bad feature index {_quote(idx_s)}"
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


def _pairs(tokens: list[str]) -> list[str]:
    return list(chain.from_iterable(map(str.partition, tokens[1:], repeat(":"))))


def parse_svmlight_model(text: str) -> TrainedModel:
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
                f"bad {_HEADER_FIELDS[idx]} {_quote(tok)}", line=idx + 1
            ) from None

    kernel = header_int(1)
    if kernel != 0:
        raise UnsupportedKernel(
            f"unsupported kernel type {kernel} (only linear, type 0)"
        )
    feature_count = header_int(7)
    if feature_count < 1:
        raise MalformedModel("highest feature index must be >= 1", line=8)
    sv_count = header_int(9) - 1
    if sv_count < 1:
        raise MalformedModel("support vector count must be >= 1", line=10)
    try:
        bias = _parse_real(header_value(10))
    except ValueError as exc:
        raise MalformedModel(str(exc), line=11) from None
    if not math.isfinite(bias):
        raise MalformedModel("threshold must be finite", line=11)

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
    if sv_count * feature_count > MAX_DENSE_VALUES:
        raise MalformedModel(
            f"{sv_count} support vectors x {feature_count} features exceeds"
            f" {MAX_DENSE_VALUES} values",
            line=8,
        )

    weights = array("d", [bias])
    counts: list[int] = []
    cols, vals = array("i"), array("d")
    for lineno, line in body:
        tokens = line.split()
        parts = _pairs(tokens)
        try:
            weight = float(tokens[0])
            idx = list(map(int, parts[0::3]))
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
            raise MalformedModel(_fault(tokens, feature_count), line=lineno)
        weights.append(weight)
        counts.append(len(idx))
        cols.fromlist(idx)
        vals.fromlist(line_vals)

    w32 = _binary32(
        np.frombuffer(weights), lambda: [header_value(10)] + [ln.split()[0] for _, ln in body]
    )
    starts = np.arange(-1, sv_count * feature_count - 1, feature_count, dtype=np.intc)
    where = np.repeat(starts, counts)
    where += np.frombuffer(cols, dtype=np.intc)
    sv = np.zeros((sv_count, feature_count), dtype=np.float32)
    sv.reshape(-1)[where] = _binary32(
        np.frombuffer(vals),
        lambda: [p for _, ln in body for p in _pairs(ln.split())[2::3]],
    )
    return TrainedModel(sv, w32[1:], float(w32[0]))
