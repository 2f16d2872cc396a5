"""Numeric model of the streaming classifier datapath.

The accelerator computes, entirely in binary32 with round-to-nearest-even
after every multiply and every add:

1. a weight vector AC[f] accumulated over support vectors in ascending
   index order (AC[f] += alpha_y[s] * sv[s][f]),
2. a running dot product D accumulated over features in ascending order
   (D += AC[f] * x[f]),
3. the decision distance D - b and its sign: label +1 when the distance
   is >= the threshold, else -1.

No fused multiply-add and no reassociation anywhere: each product is
rounded before the add that consumes it.  Overflow follows IEEE-754
(round to +/-inf); NaN compares false against the threshold, so a NaN
distance yields label -1 and a cleared finite flag.

Both sums are one ordered numpy kernel: the binary32 products fill an array
behind a +0.0 seed row, and np.add.accumulate adds the rows strictly first
to last (np.sum adds pairwise, a different association).  The seed turns a
leading -0.0 product into +0.0, as a zero-initialised accumulator does.
run_accelerator ignores numpy's overflow and NaN warnings in one
np.errstate for the frame's every step; the public steps each hold one.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .model_io import StreamFrame, TestInstance, TrainedModel, split_frame

__all__ = [
    "AccelResult",
    "accumulate_weight_vector",
    "dot_distance",
    "decide",
    "run_accelerator",
    "f32_bits",
]

_F32 = np.float32


def f32_bits(value) -> int:
    """The binary32 bit pattern of a value, as an unsigned int.

    The store into a one-element array("f") is a C double-to-float cast, so
    a finite double beyond the binary32 range rounds to the matching infinity.
    """
    return int.from_bytes(array("f", (float(value),)).tobytes(), sys.byteorder)


@dataclass(frozen=True)
class AccelResult:
    """Outcome of one classification.

    distance is D - b and raw_distance is D, both exactly representable
    in binary32.  finite, derived from distance, is False when the
    distance overflowed or went NaN on the way through the pipeline.
    """

    label: int
    distance: float
    raw_distance: float

    @property
    def finite(self) -> bool:
        return math.isfinite(self.distance)


def _ordered_sum(coeffs: np.ndarray, rows: np.ndarray):
    """The binary32 sum of coeffs[i] * rows[i] over i, first to last.

    coeffs broadcasts against rows; 2-D rows sum to a row, 1-D to a scalar.
    The caller ignores numpy's overflow and NaN warnings: IEEE results flow on.
    """
    terms = np.zeros((rows.shape[0] + 1, *rows.shape[1:]), dtype=_F32)
    np.multiply(coeffs, rows, out=terms[1:])
    return np.add.accumulate(terms, axis=0)[-1]


def accumulate_weight_vector(model: TrainedModel) -> np.ndarray:
    """Condense the model into AC[f] = sum_s alpha_y[s] * sv[s][f].

    Returns AC as a read-only binary32 array, one value per feature.
    Accumulation order is support vectors ascending, one rounding per
    multiply and per add, independently per feature lane.
    """
    with np.errstate(all="ignore"):
        ac = _ordered_sum(model.alpha_y[:, None], model.support_vectors)
    ac.flags.writeable = False
    return ac


def dot_distance(ac: np.ndarray, test: TestInstance) -> np.float32:
    """Running binary32 dot product of AC with the test vector, feature 0 first."""
    if ac.shape[0] != test.feature_count:
        raise DimensionError("accumulator", ac.shape[0], "instance", test.feature_count)
    with np.errstate(all="ignore"):
        return _ordered_sum(ac, test.values)


def _decided(raw_distance, bias, threshold) -> tuple[int, np.float32]:
    """decide, with the caller ignoring numpy's overflow and NaN warnings."""
    distance = _F32(raw_distance) - _F32(bias)
    # a threshold beyond the binary32 range rounds to +/-inf
    return 1 if distance >= _F32(threshold) else -1, distance


def decide(raw_distance, bias, threshold=0.0) -> tuple[int, np.float32]:
    """Subtract the bias in binary32 and compare against the threshold.

    Returns (label, distance) with label +1 iff distance >= threshold
    under an IEEE binary32 compare, so a NaN distance labels -1.
    """
    with np.errstate(all="ignore"):
        return _decided(raw_distance, bias, threshold)


def run_accelerator(
    frame: StreamFrame, sv_count: int, feature_count: int, threshold: float = 0.0
) -> AccelResult:
    """Consume one stream frame exactly as the hardware does.

    The frame is sliced, not validated: non-finite word patterns flow
    through the arithmetic and surface in the result flags.
    """
    sv, bias, alpha_y, x = split_frame(frame, sv_count, feature_count)
    with np.errstate(all="ignore"):  # one for the frame's every step
        raw = _ordered_sum(_ordered_sum(alpha_y[:, None], sv), x)
        label, distance = _decided(raw, bias, threshold)
    result = object.__new__(AccelResult)  # each field stored without a call
    fields = result.__dict__
    fields["label"], fields["distance"], fields["raw_distance"] = label, float(distance), float(raw)
    return result
