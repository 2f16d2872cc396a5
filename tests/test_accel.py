import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svmsoc import (
    TestInstance,
    TrainedModel,
    accumulate_weight_vector,
    decide,
    DimensionError,
    dot_distance,
    emit_stream,
    f32_bits,
    run_accelerator,
)
from svmsoc.accel import AccelResult, _ordered_sum
from svmsoc.model_io import StreamFrame

import ref32
from conftest import bit_key, edge_lane_case, random_instance, random_model

F32 = np.float32


def model_of(rows, ay, bias=0.0):
    return TrainedModel(np.array(rows, F32), np.array(ay, F32), bias)


class TestAccumulate:
    def test_single_sv_is_elementwise_product(self):
        acc = accumulate_weight_vector(model_of([[1.5, -2.25]], [2.0]))
        assert acc.tolist() == [3.0, -4.5]

    def test_returns_a_read_only_binary32_array(self):
        acc = accumulate_weight_vector(model_of([[1.5, -2.25]], [2.0]))
        assert isinstance(acc, np.ndarray) and acc.dtype == F32
        assert not acc.flags.writeable

    def test_opposite_weights_cancel_exactly(self):
        m = model_of([[0.1, 0.7, -3.3], [0.1, 0.7, -3.3]], [1.0, -1.0])
        acc = accumulate_weight_vector(m)
        assert not acc.any()

    def test_rounds_after_every_add(self):
        # 1e8 and 1 are both exact in binary32 but their sum is not:
        # a wider accumulator would keep the +1
        acc = accumulate_weight_vector(model_of([[1e8], [1.0]], [1.0, 1.0]))
        assert acc.tolist() == [1e8]

    def test_matches_double_oracle_on_small_bounded_model(self, rng):
        m = random_model(rng, 3, 2)
        acc = accumulate_weight_vector(m)
        oracle = m.support_vectors.astype(np.float64).T @ m.alpha_y.astype(np.float64)
        assert np.allclose(acc, oracle, rtol=1e-5, atol=1e-7)


class TestDotDistance:
    def test_simple_product(self):
        acc = np.array([2.0], F32)
        assert dot_distance(acc, TestInstance(np.array([3.0], F32))) == 6.0

    def test_zero_instance(self):
        acc = np.array([1.0, -2.0, 3.0], F32)
        assert dot_distance(acc, TestInstance(np.zeros(3, F32))) == 0.0

    def test_accumulates_in_ascending_feature_order(self):
        # (1 + 1e8) rounds to 1e8, then -1e8 cancels to zero; any other
        # association would leave the 1 behind
        acc = np.array([1.0, 1e8, -1e8], F32)
        x = TestInstance(np.ones(3, F32))
        assert dot_distance(acc, x) == 0.0

    def test_length_mismatch(self):
        acc = np.array([1.0], F32)
        with pytest.raises(DimensionError):
            dot_distance(acc, TestInstance(np.array([1.0, 2.0], F32)))

    def test_matches_double_dot_on_bounded_vectors(self, rng):
        ac = rng.uniform(-1, 1, 27).astype(F32)
        x = rng.uniform(-1, 1, 27).astype(F32)
        got = dot_distance(ac, TestInstance(x))
        want = float(ac.astype(np.float64) @ x.astype(np.float64))
        assert got == pytest.approx(want, rel=1e-5, abs=1e-6)


class TestDecide:
    def test_zero_distance_is_positive_class(self):
        assert decide(5.0, 5.0, 0.0) == (1, 0.0)

    def test_below_threshold(self):
        label, dist = decide(1.0, 2.0, 0.0)
        assert label == -1 and dist == -1.0

    def test_threshold_shifts_boundary(self):
        assert decide(3.0, 0.0, 3.0)[0] == 1
        assert decide(3.0, 0.0, 3.5)[0] == -1

    def test_negative_zero_counts_as_at_threshold(self):
        label, dist = decide(-0.0, 0.0, 0.0)
        assert label == 1 and dist == 0.0

    def test_nan_labels_negative(self):
        label, dist = decide(float("nan"), 0.0, 0.0)
        assert label == -1 and np.isnan(dist)

    def test_infinities(self):
        assert decide(float("inf"), 0.0)[0] == 1
        assert decide(float("-inf"), 0.0)[0] == -1

    def test_threshold_beyond_binary32_rounds_to_infinity(self):
        # +1e39 rounds to +inf, which no finite distance reaches; -1e39
        # rounds to -inf, which even a -inf distance reaches
        assert decide(F32(3e38), 0.0, 1e39)[0] == -1
        assert decide(float("inf"), 0.0, 1e39)[0] == 1
        assert decide(F32(-3e38), 0.0, -1e39)[0] == 1
        assert decide(float("-inf"), 0.0, -1e39)[0] == 1


class TestAccelResult:
    def test_finite_derives_from_distance(self):
        assert AccelResult(-1, math.inf, math.inf).finite is False
        assert AccelResult(-1, math.nan, 1.0).finite is False
        assert AccelResult(1, 0.5, 1.5).finite is True


class TestRunAccelerator:
    def test_composes_the_three_stages(self, rng):
        m = random_model(rng, 5, 3)
        t = random_instance(rng, 3)
        res = run_accelerator(emit_stream(m, t), 5, 3)
        acc = accumulate_weight_vector(m)
        label, dist = decide(dot_distance(acc, t), m.bias)
        assert (res.label, res.distance) == (label, float(dist))
        assert res.finite

    def test_zero_weights_classify_everything_positive(self, rng):
        # all-zero alpha*y with zero bias: distance is exactly +0.0, label +1
        for _ in range(20):
            s, fl = int(rng.integers(1, 30)), int(rng.integers(1, 10))
            m = TrainedModel(
                rng.uniform(-50, 50, (s, fl)).astype(F32), np.zeros(s, F32), 0.0
            )
            t = TestInstance(rng.uniform(-50, 50, fl).astype(F32))
            res = run_accelerator(emit_stream(m, t), s, fl)
            assert (res.label, res.distance) == (1, 0.0)
            assert f32_bits(res.distance) == 0

    def test_single_cell_example(self):
        m = model_of([[2.0]], [1.0], bias=0.0)
        res = run_accelerator(emit_stream(m, TestInstance(np.array([3.0], F32))), 1, 1)
        assert res.label == 1 and res.distance == 6.0 and res.raw_distance == 6.0

    def test_cancelling_model_returns_minus_bias(self):
        m = model_of([[1.0, 2.0], [1.0, 2.0]], [1.0, -1.0], bias=0.25)
        res = run_accelerator(emit_stream(m, TestInstance(np.array([5.0, 6.0], F32))), 2, 2)
        assert res.distance == -0.25 and res.label == -1

    def test_overflow_propagates_to_infinity(self):
        big = 3e38
        m = model_of([[big], [big]], [1.0, 1.0])
        res = run_accelerator(emit_stream(m, TestInstance(np.array([1.0], F32))), 1 + 1, 1)
        assert res.label == 1 and res.distance == float("inf")
        assert not res.finite

    @pytest.mark.parametrize("threshold, label", [(1e39, -1), (-1e39, 1)])
    def test_threshold_beyond_binary32_rounds_to_infinity(self, threshold, label):
        for ay in (2.0, -2.0):  # a distance of 6 and one that overflows to -inf
            m = model_of([[3.0 if ay > 0 else 3e38]], [ay])
            frame = emit_stream(m, TestInstance(np.array([1.0], F32)))
            assert run_accelerator(frame, 1, 1, threshold).label == label

    def test_nan_frame_word_flows_through(self):
        m = model_of([[1.0]], [1.0])
        frame = emit_stream(m, TestInstance(np.array([1.0], F32)))
        words = frame.words.copy()
        words[0] = 0x7FC00000  # NaN support-vector word
        res = run_accelerator(StreamFrame(words), 1, 1)
        assert res.label == -1 and not res.finite

    @given(
        st.integers(1, 10),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 1e4, 1e30]),
    )
    @settings(max_examples=250, deadline=None)
    def test_bit_identical_to_struct_reference(self, s, fl, seed, scale):
        rng = np.random.default_rng(seed)
        m = random_model(rng, s, fl, scale=scale)
        t = random_instance(rng, fl, scale=scale)
        res = run_accelerator(emit_stream(m, t), s, fl)
        label, dist, raw = ref32.classify(
            m.support_vectors.tolist(), m.alpha_y.tolist(), t.values.tolist(), m.bias
        )
        assert bit_key(res) == bit_key(AccelResult(label, dist, raw))

    @given(edge_lane_case())
    @settings(max_examples=300, deadline=None)
    def test_ordered_kernels_match_struct_reference_on_edge_lanes(self, case):
        m, rows, kind = case
        sv, ay = m.support_vectors.tolist(), m.alpha_y.tolist()
        with np.errstate(all="ignore"):  # the kernel's callers hold one for it
            ac = _ordered_sum(m.alpha_y[:, None], m.support_vectors)
        assert [bit_key(float(v)) for v in ac] == list(map(bit_key, ref32.accumulate(sv, ay)))
        assert f32_bits(ac[0]) == 0  # -0.0 products sum to +0.0
        if kind != "finite":
            assert ac[2] == np.inf
        for x in rows:
            # lane 0 gives -0.0, lane 1 underflows to a zero: the sum is +0.0
            with np.errstate(all="ignore"):
                assert f32_bits(_ordered_sum(ac[:2], x[:2])) == 0
                partial = _ordered_sum(ac, x)
            label, dist, raw = ref32.classify(sv, ay, x.tolist(), m.bias)
            assert bit_key(float(partial)) == bit_key(raw)
            res = run_accelerator(
                emit_stream(m, TestInstance(x)), m.sv_count, m.feature_count
            )
            assert bit_key(res) == bit_key(AccelResult(label, dist, raw))
            if kind == "nan":  # inf - inf in the dot product, labelled -1
                assert np.isnan(res.distance) and res.label == -1 and not res.finite


def _double(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


class TestF32Bits:
    @given(st.one_of(st.integers(0, 2**64 - 1).map(_double), st.floats()))
    @example(1e39)
    @example(-1e39)
    @example(2.0**128)
    @example(-(2.0**128))
    @example(3.4028235677973366e38)  # rounds down to the largest binary32
    @example(2.0**-149)  # the least binary32 subnormal
    @example(0.75 * 2.0**-126)
    @example(2.0**-150)  # halfway to zero: rounds to even, +0
    @example(-0.0)
    @example(_double(0x7FF0_0000_0000_0001))  # a signalling NaN
    @example(_double(0xFFF8_DEAD_BEEF_0001))  # a quiet NaN with a payload
    @settings(max_examples=2000, deadline=None)
    def test_matches_the_numpy_binary32_cast(self, v):
        with np.errstate(over="ignore"):
            want = int(np.float32(v).view(np.uint32))
        assert f32_bits(v) == want
