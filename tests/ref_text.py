"""Reference for the native, instance and CSV text parsers.

The parsers as they were when every file was read line by line with
`float`: each line's tokens (or comma-separated cells) are read, checked
for finiteness and appended in order, so the first faulty line is the one
reported.  The rounding to binary32 is the package's own
(model_io._binary32); only the binary64 read is kept here.  A quoted token
longer than 40 characters is cut to 40 plus "…", as every message does.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from svmsoc.errors import MalformedDataset, MalformedInstance, MalformedModel
from svmsoc.model_io import LabeledDataset, TestInstance, TrainedModel, _binary32


def _quote(token: str) -> str:
    return repr(token if len(token) <= 40 else token[:40] + "…")


def _parse_real(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"bad real {_quote(token.strip())}") from None


def _parse_reals(tokens) -> list[float]:
    try:
        return list(map(float, tokens))
    except ValueError:
        return list(map(_parse_real, tokens))


def _all_finite(vals: list[float]) -> bool:
    return math.isfinite(sum(vals)) or all(map(math.isfinite, vals))


def _parse_real_lines(text: str, fault):
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
    features = array("d")
    labels = []
    width = None
    for lineno0, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        lineno = lineno0 + 1
        cells = line.split(",")
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
