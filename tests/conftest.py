import math
import struct

import numpy as np
import pytest
from hypothesis import strategies as st

from svmsoc import AccelResult, TestInstance, TrainedModel


def random_model(rng: np.random.Generator, sv_count: int, feature_count: int, scale=1.0):
    sv = (rng.uniform(-scale, scale, (sv_count, feature_count))).astype(np.float32)
    ay = rng.uniform(-scale, scale, sv_count).astype(np.float32)
    bias = float(np.float32(rng.uniform(-scale, scale)))
    return TrainedModel(sv, ay, bias)


def random_instance(rng: np.random.Generator, feature_count: int, scale=1.0):
    return TestInstance(rng.uniform(-scale, scale, feature_count).astype(np.float32))


def bit_key(value):
    """A value as a key that tells every type and every binary64 bit pattern apart.

    Engines that agree on a binary32 result agree on these keys; `f32_bits`
    rounds first, so a distance left unrounded in binary64 would pass it.
    """
    if isinstance(value, AccelResult):
        return tuple(map(bit_key, (value.label, value.distance, value.raw_distance)))
    if isinstance(value, float):
        return float, struct.pack("<d", value)
    return type(value), value


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).tiny)  # smallest normal binary32


@st.composite
def edge_lane_case(draw, max_rows=4):
    """A model and test rows whose first four feature lanes pin binary32 edge cases.

    lane 0: every AC product is -0.0 and every input is negative, so both
            sums start from a -0.0 product that only a +0.0 seed turns +0.0
    lane 1: subnormal support-vector values and inputs
    lanes 2-3, by kind: "finite" holds ordinary values; "overflow" makes
            every product overflow (|alpha_y| > 1 times the binary32
            maximum), so AC is +inf and the dot product meets +/-inf;
            "nan" negates lane 3's input too, so the dot product meets
            inf - inf and a NaN reaches the decision
    Further lanes hold ordinary values.
    Returns (model, rows, kind).
    """
    sv_count = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["finite", "overflow", "nan"]))
    n_ordinary = draw(st.integers(0, 4)) + (2 if kind == "finite" else 0)
    ordinary = st.floats(-1e4, 1e4, width=32)
    subnormal = st.floats(
        -F32_TINY, F32_TINY, width=32, exclude_min=True, exclude_max=True
    )
    sign = st.sampled_from([1.0, -1.0])
    above_one = st.floats(1.0, 2.0, width=32, exclude_min=True)
    ay = [draw(above_one) * draw(sign) for _ in range(sv_count)]
    rows = [
        [math.copysign(0.0, -a), draw(subnormal)]
        + ([] if kind == "finite" else [math.copysign(F32_MAX, a)] * 2)
        + [draw(ordinary) for _ in range(n_ordinary)]
        for a in ay
    ]
    xs = []
    for _ in range(draw(st.integers(1, max_rows))):
        big = draw(st.sampled_from([1.0, -1.0, 0.5, -2.0]))
        xs.append(np.array(
            [-abs(draw(ordinary)), draw(subnormal)]
            + ([] if kind == "finite" else [big, -big if kind == "nan" else big])
            + [draw(ordinary) for _ in range(n_ordinary)],
            dtype=np.float32,
        ))
    model = TrainedModel(
        np.array(rows, np.float32), np.array(ay, np.float32), draw(ordinary)
    )
    return model, xs, kind
