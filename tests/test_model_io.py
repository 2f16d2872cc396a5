import re
from contextlib import nullcontext
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from svmsoc import (
    FrameLengthError,
    LabeledDataset,
    MalformedDataset,
    MalformedInstance,
    MalformedModel,
    StreamFrame,
    SvmSocError,
    TestInstance,
    TrainedModel,
    UnsupportedKernel,
    emit_dataset,
    emit_native_model,
    emit_stream,
    emit_test_instance,
    format_real,
    load_dataset,
    make_synthetic,
    parse_native_model,
    parse_stream,
    parse_svmlight_model,
    parse_test_instance,
)

from svmsoc import model_io
from svmsoc.model_io import MAX_DENSE_VALUES, format_reals

import ref_format
import ref_svmlight
import ref_text
import sweep_format
from conftest import random_instance, random_model

SVMLIGHT_TWO_SV = """\
SVM-light Version V6.02
0 # kernel type
3 # kernel parameter -d
1 # kernel parameter -g
1 # kernel parameter -s
1 # kernel parameter -r
empty# kernel parameter -u
2 # highest feature index
2 # number of training documents
3 # number of support vectors plus 1
0.5 # threshold b
1 1:1.5 2:-2 #
-0.25 2:4 #
"""


def svmlight_text(model: TrainedModel) -> str:
    """Test-local SVM-Light emitter (the package only parses this format)."""
    lines = [
        "SVM-light Version V6.02",
        "0 # kernel type",
        "3 # kernel parameter -d",
        "1 # kernel parameter -g",
        "1 # kernel parameter -s",
        "1 # kernel parameter -r",
        "empty# kernel parameter -u",
        f"{model.feature_count} # highest feature index",
        "2 # number of training documents",
        f"{model.sv_count + 1} # number of support vectors plus 1",
        f"{format_real(model.bias)} # threshold b",
    ]
    for ay, row in zip(model.alpha_y, model.support_vectors):
        pairs = " ".join(
            f"{i + 1}:{format_real(v)}" for i, v in enumerate(row) if v != 0
        )
        lines.append(f"{format_real(ay)} {pairs} #".replace("  #", " #"))
    return "\n".join(lines) + "\n"


class TestSvmlightParsing:
    def test_two_sv_example(self):
        m = parse_svmlight_model(SVMLIGHT_TWO_SV)
        assert m.sv_count == 2 and m.feature_count == 2
        assert m.bias == 0.5
        assert m.alpha_y.tolist() == [1.0, -0.25]
        assert m.support_vectors.tolist() == [[1.5, -2.0], [0.0, 4.0]]

    def test_sparse_gaps_densify_with_zeros(self):
        text = SVMLIGHT_TWO_SV.replace(
            "2 # highest feature index", "4 # highest feature index"
        )
        m = parse_svmlight_model(text)
        assert m.support_vectors.tolist() == [
            [1.5, -2.0, 0.0, 0.0],
            [0.0, 4.0, 0.0, 0.0],
        ]

    def test_zero_payload_sv_line(self):
        # a lone "0.0 #" support vector is legal and weighs nothing
        text = SVMLIGHT_TWO_SV.replace(
            "3 # number of support vectors plus 1",
            "2 # number of support vectors plus 1",
        )
        text = text.replace("1 1:1.5 2:-2 #\n-0.25 2:4 #\n", "0.0 #\n")
        m = parse_svmlight_model(text)
        assert m.sv_count == 1
        assert not m.support_vectors.any() and m.alpha_y.tolist() == [0.0]

    def test_rbf_kernel_rejected(self):
        with pytest.raises(UnsupportedKernel, match="kernel type 2"):
            parse_svmlight_model(SVMLIGHT_TWO_SV.replace("0 # kernel type", "2 # kernel type"))

    def test_bad_header_value_reports_line(self):
        bad = SVMLIGHT_TWO_SV.replace("2 # highest feature index", "x # highest feature index")
        with pytest.raises(MalformedModel) as err:
            parse_svmlight_model(bad)
        assert err.value.line == 8

    def test_bad_pair_reports_line(self):
        bad = SVMLIGHT_TWO_SV.replace("-0.25 2:4 #", "-0.25 2:oops #")
        with pytest.raises(MalformedModel) as err:
            parse_svmlight_model(bad)
        assert err.value.line == 13

    def test_duplicate_feature_index(self):
        bad = SVMLIGHT_TWO_SV.replace("1 1:1.5 2:-2 #", "1 1:1.5 1:-2 #")
        with pytest.raises(MalformedModel, match="duplicate"):
            parse_svmlight_model(bad)

    def test_index_out_of_declared_range(self):
        bad = SVMLIGHT_TWO_SV.replace("-0.25 2:4 #", "-0.25 3:4 #")
        with pytest.raises(MalformedModel, match="outside"):
            parse_svmlight_model(bad)

    def test_sv_line_count_must_match_header(self):
        with pytest.raises(MalformedModel, match="found 1"):
            parse_svmlight_model(SVMLIGHT_TWO_SV.replace("-0.25 2:4 #\n", ""))
        with pytest.raises(MalformedModel, match="more than the declared"):
            parse_svmlight_model(SVMLIGHT_TWO_SV + "0.5 1:1 #\n")

    def test_huge_declared_sv_count_refused_before_allocating(self):
        text = SVMLIGHT_TWO_SV.replace(
            "3 # number of support vectors plus 1",
            f"{10**15 + 1} # number of support vectors plus 1",
        )
        with pytest.raises(MalformedModel, match=f"declared {10**15} .* found 2"):
            parse_svmlight_model(text)

    def test_huge_declared_feature_count_refused_before_allocating(self):
        text = SVMLIGHT_TWO_SV.replace(
            "2 # highest feature index", f"{10**15} # highest feature index"
        )
        with pytest.raises(MalformedModel, match=f"2 support vectors x {10**15} features") as err:
            parse_svmlight_model(text)
        assert err.value.line == 8

    def test_dense_limit_is_on_the_product(self):
        at_limit = SVMLIGHT_TWO_SV.replace(
            "2 # highest feature index",
            f"{MAX_DENSE_VALUES // 2 + 1} # highest feature index",
        )
        with pytest.raises(MalformedModel, match=f"exceeds {MAX_DENSE_VALUES} values"):
            parse_svmlight_model(at_limit)

    def test_truncated_header(self):
        with pytest.raises(MalformedModel, match="header"):
            parse_svmlight_model("SVM-light\n0\n")

    def test_non_finite_value_rejected(self):
        bad = SVMLIGHT_TWO_SV.replace("-0.25 2:4 #", "-0.25 2:inf #")
        with pytest.raises(MalformedModel, match="non-finite"):
            parse_svmlight_model(bad)

    @given(st.text(max_size=400))
    @settings(max_examples=200, deadline=None)
    def test_parser_is_total(self, text):
        try:
            parse_svmlight_model(text)
        except SvmSocError:
            pass


class TestNativeParsing:
    def test_round_trip_small(self):
        m = TrainedModel(
            np.array([[1.5, -2.0], [0.25, 4.0]], np.float32),
            np.array([1.0, -0.25], np.float32),
            0.5,
        )
        svs, alpha = emit_native_model(m)
        assert parse_native_model(svs, alpha) == m

    def test_ragged_rows_rejected(self):
        with pytest.raises(MalformedModel) as err:
            parse_native_model("1 2\n3\n", "0\n1\n1\n")
        assert err.value.line == 2

    def test_weight_count_mismatch(self):
        with pytest.raises(MalformedModel, match="bias plus 2"):
            parse_native_model("1 2\n3 4\n", "0\n1\n")

    def test_non_finite_rejected(self):
        with pytest.raises(MalformedModel, match="non-finite"):
            parse_native_model("1 nan\n", "0\n1\n")

    def test_matches_svmlight_parse(self):
        m = parse_svmlight_model(SVMLIGHT_TWO_SV)
        svs, alpha = emit_native_model(m)
        assert parse_native_model(svs, alpha) == m

    @given(st.text(max_size=200), st.text(max_size=100))
    @settings(max_examples=150, deadline=None)
    def test_parser_is_total(self, svs, alpha):
        try:
            parse_native_model(svs, alpha)
        except SvmSocError:
            pass


class TestInstanceAndDataset:
    def test_instance_parse(self):
        inst = parse_test_instance("1.5 -2 0.25\n")
        assert inst.values.tolist() == [1.5, -2.0, 0.25]

    def test_instance_wrong_count(self):
        with pytest.raises(MalformedInstance, match="expects 4"):
            parse_test_instance("1 2 3", 4)

    def test_instance_bad_token(self):
        with pytest.raises(MalformedInstance):
            parse_test_instance("1 two 3")

    def test_instance_empty(self):
        with pytest.raises(MalformedInstance):
            parse_test_instance("   \n")

    def test_instance_beyond_binary32_is_refused_without_a_warning(self):
        with pytest.raises(MalformedInstance, match="non-finite"):
            TestInstance(np.array([1e39, 1.0]))

    @given(st.text(max_size=200), st.one_of(st.none(), st.integers(1, 4)))
    @settings(max_examples=150, deadline=None)
    def test_instance_parser_is_total(self, text, feature_count):
        try:
            parse_test_instance(text, feature_count)
        except SvmSocError:
            pass

    def test_dataset_parse_and_round_trip(self):
        ds = load_dataset("1,2,1\n-0.5,0.25,-1\n")
        assert len(ds) == 2 and ds.labels == (1, -1)
        assert ds.feature_count == 2
        assert load_dataset(emit_dataset(ds)).labels == ds.labels

    def test_dataset_bad_label(self):
        with pytest.raises(MalformedDataset, match="label"):
            load_dataset("1,2,0\n")

    def test_dataset_ragged(self):
        with pytest.raises(MalformedDataset, match="columns"):
            load_dataset("1,2,1\n1,1\n")

    def test_dataset_empty(self):
        with pytest.raises(MalformedDataset):
            load_dataset("\n\n")

    def test_dataset_loads_as_one_binary32_matrix(self):
        ds = load_dataset("1,2,1\n-0.5,0.1,-1\n")
        assert ds.features.dtype == np.float32 and not ds.features.flags.writeable
        assert ds.features.tolist() == [[1.0, 2.0], [-0.5, float(np.float32(0.1))]]

    @given(st.text(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_dataset_parser_is_total(self, text):
        try:
            load_dataset(text)
        except SvmSocError:
            pass


GOOD_ROWS = np.array([[0.5, -1.0, 2.0], [0.0, 3.0, -0.25]], np.float32)


class TestLabeledDataset:
    @pytest.mark.parametrize(
        "features,labels,match",
        [
            (np.where(GOOD_ROWS == -1.0, np.nan, GOOD_ROWS), (1, -1), "non-finite"),
            (np.where(GOOD_ROWS == 2.0, np.inf, GOOD_ROWS), (1, -1), "non-finite"),
            (GOOD_ROWS[:0], (), "empty"),
            (GOOD_ROWS[:, :0], (1, -1), "empty"),
            (GOOD_ROWS, (1,), "count mismatch"),
            (GOOD_ROWS, (1, 0), r"\+1 or -1"),
            (GOOD_ROWS, (1, 2), r"\+1 or -1"),
            (GOOD_ROWS[0], (1, -1, 1), "N x Fl"),
        ],
        ids=["nan", "inf", "no-rows", "no-features", "count", "zero-label", "two-label", "1-d"],
    )
    def test_refuses_a_malformed_matrix(self, features, labels, match):
        # each case is the accepted matrix below with one fault
        assert LabeledDataset(GOOD_ROWS, (1, -1)).feature_count == 3
        with pytest.raises(MalformedDataset, match=match):
            LabeledDataset(features, labels)

    def test_instances_are_bit_equal_rows(self):
        rows = np.array([[-0.0, 1e-45, 3.5], [7.0, -2.0, 0.0]], np.float32)
        ds = LabeledDataset(rows, (-1, 1))
        assert ds.instances == (TestInstance(rows[0]), TestInstance(rows[1]))
        for inst, row in zip(ds.instances, rows):
            assert inst.values.view(np.uint32).tolist() == row.view(np.uint32).tolist()
        assert ds.instances is ds.instances  # built once

    def test_keeps_a_frozen_copy(self):
        rows = GOOD_ROWS.copy()
        ds = LabeledDataset(rows, (1, -1))
        rows[0, 0] = 9.0
        assert ds.features[0, 0] == 0.5 and not ds.features.flags.writeable

    def test_beyond_binary32_is_refused_without_a_warning(self):
        with pytest.raises(MalformedDataset, match="non-finite"):
            LabeledDataset(np.array([[1e39, 1.0]]), (1,))

    def test_equality_compares_bits(self):
        plus = LabeledDataset(np.array([[0.0, 1.0]], np.float32), (1,))
        minus = LabeledDataset(np.array([[-0.0, 1.0]], np.float32), (1,))
        assert plus == LabeledDataset(np.array([[0.0, 1.0]], np.float32), [1])
        assert plus != minus
        assert plus != LabeledDataset(np.array([[0.0, 1.0]], np.float32), (-1,))


VALUES = [
    TrainedModel(np.ones((1, 2), np.float32), np.ones(1, np.float32), 0.0),
    TestInstance(np.ones(2, np.float32)),
    LabeledDataset(np.ones((1, 2), np.float32), (1,)),
    StreamFrame(np.zeros(4, "<u4")),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_are_unhashable(value):
    with pytest.raises(TypeError):
        hash(value)


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_leave_other_types_to_compare(value):
    assert value.__eq__(1) is NotImplemented
    assert (value == 1) is False and value != "x"


class TestStreamFrames:
    def test_word_order_is_svs_bias_weights_test(self):
        m = TrainedModel(
            np.array([[1.0, 2.0], [3.0, 4.0]], np.float32),
            np.array([5.0, 6.0], np.float32),
            7.0,
        )
        t = TestInstance(np.array([8.0, 9.0], np.float32))
        frame = emit_stream(m, t)
        reals = frame.words.view("<f4").tolist()
        assert reals == [1.0, 2.0, 3.0, 4.0, 7.0, 5.0, 6.0, 8.0, 9.0]
        # the words as the constructor stores them: flat, read-only little-endian u32
        assert frame.words.dtype == np.dtype("<u4") and frame.words.shape == (9,)
        assert not frame.words.flags.writeable and frame == StreamFrame(frame.words)

    def test_word_count_formula(self):
        assert StreamFrame.word_count(2, 2) == 9
        assert StreamFrame.word_count(61, 27) == 61 * 27 + 1 + 61 + 27

    def test_length_error_carries_expected_and_actual(self):
        frame = StreamFrame(np.zeros(8, np.uint32))
        with pytest.raises(FrameLengthError) as err:
            parse_stream(frame, 2, 2)
        assert err.value.expected == 9 and err.value.actual == 8

    def test_parse_inverts_emit(self):
        m = TrainedModel(
            np.array([[0.1, -0.2], [0.3, 0.4]], np.float32),
            np.array([0.5, -0.6], np.float32),
            0.7,
        )
        t = TestInstance(np.array([0.8, -0.9], np.float32))
        m2, t2 = parse_stream(emit_stream(m, t), 2, 2)
        assert m2 == m
        assert t2 == t

    def test_words_of_any_shape_are_copied_flat(self):
        words = np.arange(9, dtype=np.uint32).reshape(3, 3)
        frame = StreamFrame(words)
        words[0, 0] = 7
        assert frame == StreamFrame(np.arange(9, dtype=np.uint32)) and len(frame) == 9
        assert frame.words.shape == (9,) and not frame.words.flags.writeable

    def test_bytes_round_trip(self):
        frame = StreamFrame(np.arange(9, dtype=np.uint32))
        assert StreamFrame.from_bytes(frame.to_bytes()) == frame
        with pytest.raises(FrameLengthError):
            StreamFrame.from_bytes(b"\x00\x01\x02")

    def test_byte_length_error_counts_bytes(self):
        with pytest.raises(FrameLengthError, match=r"^expected 8 bytes, got 7$") as err:
            StreamFrame.from_bytes(b"abcdefg")
        assert (err.value.expected, err.value.actual) == (8, 7)

    def test_non_finite_frame_fails_validated_parse(self):
        words = np.zeros(9, np.uint32)
        words[0] = 0x7FC00000  # quiet NaN in a support vector slot
        with pytest.raises(MalformedModel):
            parse_stream(StreamFrame(words), 2, 2)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_parse_stream_is_total(self, data):
        sizes = st.one_of(st.integers(1, 6), st.integers(1, 2**64))
        s, fl = data.draw(sizes), data.draw(sizes)
        # mostly a frame of the right length, its words any bit patterns
        size = 4 * StreamFrame.word_count(s, fl) + data.draw(st.sampled_from([0, 0, 0, -4, -1, 3]))
        fits = size <= 400
        raw = data.draw(st.binary(min_size=size if fits else 0, max_size=size if fits else 400))
        try:
            parse_stream(StreamFrame.from_bytes(raw), s, fl)
        except SvmSocError:
            pass

    @given(st.integers(1, 12), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_is_bit_exact(self, s, fl, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, s, fl, scale=100.0)
        t = random_instance(rng, fl, scale=100.0)
        m2, t2 = parse_stream(emit_stream(m, t), s, fl)
        assert m2 == TrainedModel(m.support_vectors, m.alpha_y, m.bias)
        assert t2 == t


class TestModelValidation:
    def test_shape_mismatch(self):
        with pytest.raises(MalformedModel, match="alpha"):
            TrainedModel(np.ones((2, 3), np.float32), np.ones(3, np.float32), 0.0)

    def test_non_finite_bias(self):
        with pytest.raises(MalformedModel):
            TrainedModel(np.ones((1, 1), np.float32), np.ones(1, np.float32), float("inf"))

    def test_arrays_are_frozen_copies(self):
        sv = np.ones((1, 2), np.float32)
        m = TrainedModel(sv, np.ones(1, np.float32), 0.0)
        sv[0, 0] = 99.0
        assert m.support_vectors[0, 0] == 1.0
        with pytest.raises(ValueError):
            m.support_vectors[0, 0] = 5.0

    def test_values_coerced_to_binary32(self):
        m = TrainedModel(np.array([[0.1]]), np.array([1.0]), 0.1)
        assert m.support_vectors.dtype == np.float32
        assert m.bias == float(np.float32(0.1))

    @pytest.mark.parametrize(
        "svs, weights, bias",
        [([[1e39, 1.0]], [1.0], 0.0), ([[1.0, 1.0]], [-1e39], 0.0), ([[1.0, 1.0]], [1.0], 1e39)],
        ids=["support-vector", "weight", "bias"],
    )
    def test_beyond_binary32_is_refused_without_a_warning(self, svs, weights, bias):
        with pytest.raises(MalformedModel, match="finite"):
            TrainedModel(np.array(svs), np.array(weights), bias)

    def test_equality_compares_the_bias_bits(self):
        plus = TrainedModel(np.ones((1, 2), np.float32), np.ones(1, np.float32), 0.0)
        minus = TrainedModel(np.ones((1, 2), np.float32), np.ones(1, np.float32), -0.0)
        assert plus != minus
        assert minus == TrainedModel(minus.support_vectors, minus.alpha_y, -0.0)

    def test_negative_zero_bias_survives_the_native_round_trip(self):
        model = TrainedModel(np.ones((1, 2), np.float32), np.ones(1, np.float32), -0.0)
        svs, alpha = emit_native_model(model)
        assert alpha.splitlines()[0] == "-0.0"
        assert parse_native_model(svs, alpha) == model


# Bit patterns where formatting is easy to get wrong: NaN payloads and
# signs, signed zeros, subnormals, infinities, the largest finite value, and
# the neighbours of the points where numpy's repr switches between
# positional and exponent form.
def _neighbours(*values):
    out = []
    for v in map(np.float32, values):
        out += [np.nextafter(v, np.float32(-np.inf)), v, np.nextafter(v, np.float32(np.inf))]
    return [int(np.float32(v).view(np.uint32)) for v in out]


EDGE_BITS = [
    0x7FC00000, 0xFFC00000, 0x7FC00001, 0x7F800001, 0xFFFFFFFF,
    0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007FFFFF, 0x00800000,
    0x7F800000, 0xFF800000, 0x7F7FFFFF, 0xFF7FFFFF,
    *_neighbours(1e-4, -1e-4, 1e6, 1e7, -1e7, 1e16, 1e-38, 0.1, 1.0),
]


class TestFormatReal:
    @pytest.mark.parametrize("value", [0.0, -0.0, 1.0, 0.1, 6.0, -2.5, 1e-38, 3.4e38])
    def test_round_trips_shortest(self, value):
        v = np.float32(value)
        assert np.float32(float(format_real(v))) == v or (v == 0 and "0" in format_real(v))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_round_trips_any_finite_bit_pattern(self, bits):
        v = np.uint32(bits).view(np.float32)
        if not np.isfinite(v):
            return
        assert np.float32(float(format_real(v))) == v or (v == 0 and float(format_real(v)) == 0)

    @given(
        st.lists(st.integers(0, 2**32 - 1) | st.sampled_from(EDGE_BITS), min_size=1, max_size=24),
        st.booleans(),
    )
    @example(EDGE_BITS, False)
    @example(EDGE_BITS, True)
    @settings(max_examples=300, deadline=None)
    def test_array_formatter_matches_scalar_reference(self, bits, legacy):
        values = np.array(bits, dtype=np.uint32).view(np.float32)
        with np.printoptions(legacy="1.13") if legacy else nullcontext():
            want = [ref_format.format_real(v) for v in values]
            assert format_reals(values) == want
            assert format_reals(np.stack([values, values[::-1]]), ",") == [
                ",".join(want), ",".join(want[::-1])
            ]
            assert [format_real(v) for v in values] == want

    def test_emitters_use_the_shared_formatter(self):
        values = np.array(EDGE_BITS, dtype=np.uint32).view(np.float32)
        finite = values[np.isfinite(values)]
        want = [ref_format.format_real(v) for v in finite]
        assert emit_test_instance(TestInstance(finite)) == " ".join(want) + "\n"
        with np.printoptions(legacy="1.13"):
            svs, alpha = emit_native_model(TrainedModel(finite[None, :], finite[:1], finite[1]))
        assert svs == " ".join(want) + "\n"
        assert alpha == f"{want[1]}\n{want[0]}\n"


def _from_bits(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint32).view(np.float32)


# values drawn log-uniform around the array path's range [1e-4, 1e9), and the
# neighbours of the powers of two and ten it meets or refuses
LOG_UNIFORM = st.builds(
    lambda e, negative: np.float32(-(10.0**e) if negative else 10.0**e),
    st.floats(-5, 10),
    st.booleans(),
)
BOUNDARY_VALUES = _from_bits(sorted(set(
    _neighbours(*(2.0**k for k in range(-17, 34)), *(10.0**k for k in range(-5, 11)), 1e-4, 1e9)
)))
SAMPLES = LOG_UNIFORM | st.sampled_from(list(BOUNDARY_VALUES)) | st.sampled_from(list(-BOUNDARY_VALUES))

# Fixed values: signed zeros, the least and greatest subnormals, powers of two
# (from 2**25 the search's nearest multiple of ten lies on the half-ulp bound
# below, which is not within it: the next binary32 below is half as far),
# the greatest binary32, nan and infinities, and values whose text lies on
# the half-ulp bound, which an even significand rounds to.  The array path
# does not parse its digits back: the exhaustive sweep tests/sweep_format.py
# checks them once against Dragon4 over f32(1e-4) <= |v| < 1e9, both signs.
ON_BOUND = [46450568.0, 47529232.0, 48912768.0, 840127232.0]
FIXED_VALUES = np.concatenate([
    _from_bits([0x00000000, 0x80000000, 0x00000001, 0x007FFFFF, 0x80000001, 0x807FFFFF]),
    np.float32([2.0**k for k in range(-20, 31)]),
    np.float32([-(2.0**k) for k in range(-20, 31)]),
    np.float32([np.finfo(np.float32).max, -np.finfo(np.float32).max, np.nan, np.inf, -np.inf]),
    np.float32(ON_BOUND + [-v for v in ON_BOUND]),
])


class TestArrayPath:
    """format_reals on arrays of model_io._ARRAY_MIN values or more, against Dragon4."""

    @given(st.lists(SAMPLES, min_size=1, max_size=64), st.integers(0, 2**32 - 1),
           st.integers(1, 16), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_reference(self, samples, seed, cols, legacy):
        # the drawn values, shuffled among enough log-uniform ones for the array path
        rng = np.random.default_rng(seed)
        size = model_io._ARRAY_MIN + 16  # rows of up to 16 still hold _ARRAY_MIN values
        fill = 10.0 ** rng.uniform(-5, 10, size) * rng.choice([-1, 1], size)
        values = rng.permutation(np.concatenate([np.float32(samples), np.float32(fill)]))
        rows = values[: values.size // cols * cols].reshape(-1, cols)
        with np.printoptions(legacy="1.13") if legacy else nullcontext():
            want = [ref_format.format_real(v) for v in values]
            assert format_reals(values) == want
            assert format_reals(rows, ",") == [
                ",".join(want[i : i + cols]) for i in range(0, rows.size, cols)
            ]

    @pytest.mark.parametrize("sep", [",", " ", ", ", "\t", "·", ""])
    def test_fixed_values(self, sep):
        values = np.resize(FIXED_VALUES, 2 * model_io._ARRAY_MIN)
        want = [ref_format.format_real(v) for v in values]
        assert format_reals(values) == want
        assert format_reals(values.reshape(-1, 8), sep) == [
            sep.join(want[i : i + 8]) for i in range(0, values.size, 8)
        ]
        assert format_reals(values[None, :], sep) == [sep.join(want)]
        assert format_reals(values[:, None], sep) == want

    @pytest.mark.parametrize("shape", [(model_io._BLOCK_VALUES + 3,), (1500, 3), (2, model_io._BLOCK_VALUES + 1)])
    def test_rows_across_blocks(self, shape):
        values = np.resize(FIXED_VALUES, shape)
        want = [ref_format.format_real(v) for v in values.ravel()]
        if values.ndim == 1:
            assert format_reals(values) == want
        else:
            cols = shape[1]
            assert format_reals(values, ",") == [
                ",".join(want[i : i + cols]) for i in range(0, values.size, cols)
            ]

    @pytest.mark.parametrize("centre", [
        int(np.float32(2.0**25).view(np.uint32)),  # the powers of two the array path leaves out
        int(np.float32(2.0**26).view(np.uint32)),
        sweep_format.LOW,  # f32(1e-4), the sweep's first value
        sweep_format.HIGH - 1,  # the largest binary32 below 1e9, its last
    ], ids=["2**25", "2**26", "1e-4", "below-1e9"])
    @pytest.mark.parametrize("sign", [0, sweep_format.SIGN], ids=["+", "-"])
    def test_sweep_slice(self, centre, sign):
        # the exhaustive sweep's chunk check on 2**12 values each side of a
        # centre, which keeps the script in step with the formatter
        start = sign | centre - 2**12
        assert sweep_format.compare(start, start + 2**13) == (2**13, 0, [])

    def test_decimal_scales_are_exact(self):
        m, up, half = model_io._decimal_scales()
        for biased in range(256):
            ulp, k = Fraction(2) ** (biased - 150), int(m[biased])
            assert k <= 0 and Fraction(10) ** k <= ulp
            assert k == 0 or ulp < Fraction(10) ** (k + 1)
        for biased in range(113, 157):  # [2**-14, 2**30) holds the array path's range
            scale = Fraction(10) ** -int(m[biased])
            assert Fraction(up[biased]) == scale
            assert Fraction(half[biased]) == Fraction(2) ** (biased - 151) * scale

    def test_emitters_take_the_array_path(self, monkeypatch):
        model, dataset = make_synthetic(400, 64, 4)
        values = np.concatenate([model.support_vectors.ravel(), model.alpha_y, dataset.features.ravel()])
        assert (np.abs(values) >= 1e-4).all()  # no value this seed draws needs Dragon4
        svs, alpha = emit_native_model(model)
        csv = emit_dataset(dataset)

        def dragon4(values):
            raise AssertionError(f"Dragon4 asked for {values.size} values")

        monkeypatch.setattr(model_io, "_shortest", dragon4)
        assert emit_native_model(model) == (svs, alpha)
        assert emit_dataset(dataset) == csv


def _f32_bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float32).view(np.uint32).tolist()


MIDPOINT = "1.000000059604644775390625"  # halfway between 1.0 and 1.0000001
ABOVE = "1.00000005960464477539147203294725430033906832250067964196205"
BELOW = "1.00000005960464477538977796705274569966093167749932035803795"
SUBNORMAL_MIDPOINT = (  # 2**-150, halfway between 0 and the least subnormal
    "7.00649232162408535461864791644958065640130970938257885878534141944895541342930300743319094181060791015625E-46"
)
OVERFLOW_MIDPOINT = "340282356779733661637539395458142568448"  # 2**128 - 2**103


class TestOneRounding:
    """Decimal text rounds to the nearest binary32 once, not via binary64."""

    @pytest.mark.parametrize(
        "token,bits",
        [
            (ABOVE, 0x3F800001),
            (BELOW, 0x3F800000),
            (MIDPOINT, 0x3F800000),  # a true tie goes to the even neighbour
            ("-" + ABOVE, 0xBF800001),
            (SUBNORMAL_MIDPOINT.replace("625E", "626E"), 0x00000001),
            (SUBNORMAL_MIDPOINT, 0x00000000),
            ("-" + SUBNORMAL_MIDPOINT.replace("625E", "624E"), 0x80000000),
            (OVERFLOW_MIDPOINT[:-1] + "7.999", 0x7F7FFFFF),
            (" 1_000.000000000000000000000000000000001 ", 0x447A0000),
        ],
    )
    def test_instance_token(self, token, bits):
        assert _f32_bits(parse_test_instance(token).values) == [bits]

    @pytest.mark.parametrize("token", [OVERFLOW_MIDPOINT, OVERFLOW_MIDPOINT + ".001"])
    def test_overflow_midpoint_and_above_round_to_infinity(self, token):
        # the tie between the largest binary32 and 2**128 goes to even: infinity
        with pytest.raises(MalformedInstance, match="non-finite"):
            parse_test_instance(token)

    def test_every_parser_rounds_once(self):
        want = _f32_bits([1.0000001, 1.0])
        native = parse_native_model(f"{ABOVE} {BELOW}\n", f"{ABOVE}\n{BELOW}\n")
        assert _f32_bits(native.support_vectors[0]) == want
        assert _f32_bits([native.bias, native.alpha_y[0]]) == want
        rows = load_dataset(f"{ABOVE}, {BELOW},1\n").instances[0]
        assert _f32_bits(rows.values) == want
        light = parse_svmlight_model(
            SVMLIGHT_TWO_SV.replace("0.5 # threshold", f"{ABOVE} # threshold").replace(
                "1 1:1.5 2:-2 #", f"{BELOW} 2:{ABOVE} 1:{BELOW} #"
            )
        )
        assert _f32_bits(light.support_vectors[0]) == want[::-1]
        assert _f32_bits([light.bias, light.alpha_y[0]]) == want

    @given(
        st.integers(0, 0x7F7FFFFE),
        st.booleans(),
        st.integers(-1, 1),
        st.integers(8, 40),
    )
    @example(0, False, 1, 40)
    @example(0x3F800000, True, -1, 30)
    @settings(max_examples=300, deadline=None)
    def test_tokens_around_a_midpoint(self, low_bits, negative, side, digits):
        lo, hi = np.array([low_bits, low_bits + 1], dtype=np.uint32).view(np.float32)
        with localcontext() as ctx:
            ctx.prec = 400
            mid = (Decimal(float(lo)) + Decimal(float(hi))) / 2
            token = mid * (1 + side * Decimal(10) ** -digits)
        want = low_bits + (side > 0 or (side == 0 and low_bits % 2 == 1))
        sign = 0x80000000 if negative else 0
        text = ("-" if negative else "") + str(token)
        assert _f32_bits(parse_test_instance(text).values) == [want | sign]


class TestMakeSynthetic:
    def test_deterministic_in_seed(self):
        m1, d1 = make_synthetic(9, 4, 123)
        m2, d2 = make_synthetic(9, 4, 123)
        assert m1 == m2
        assert all(a == b for a, b in zip(d1.instances, d2.instances))
        assert d1.labels == d2.labels
        m3, _ = make_synthetic(9, 4, 124)
        assert m3 != m1

    def test_shapes_and_labels(self):
        m, ds = make_synthetic(61, 27, 7)
        assert (m.sv_count, m.feature_count) == (61, 27)
        assert len(ds) == 32 and set(ds.labels) <= {1, -1}
        assert ds.feature_count == 27

    def test_margin_is_respected(self):
        m, ds = make_synthetic(20, 6, 5)
        w = m.support_vectors.astype(np.float64).T @ m.alpha_y.astype(np.float64)
        for inst, label in zip(ds.instances, ds.labels):
            d = float(w @ inst.values.astype(np.float64) - m.bias)
            assert abs(d) >= 1e-3 * (1.0 + abs(d))
            assert label == (1 if d >= 0 else -1)

    def test_degenerate_sizes(self):
        m, ds = make_synthetic(1, 1, 0, instances=4)
        assert m.sv_count == 1 and len(ds) == 4

    def test_sizes_beyond_the_dense_limit_are_refused(self):
        with pytest.raises(ValueError, match=f"exceeds {MAX_DENSE_VALUES} values"):
            make_synthetic(10**15, 27, 1)

    @pytest.mark.parametrize("sizes", [(0, 27, 4), (61, 0, 4), (61, 27, 0)])
    def test_empty_sizes_are_refused(self, sizes):
        s, fl, instances = sizes
        with pytest.raises(ValueError) as exc:
            make_synthetic(s, fl, 1, instances=instances)
        assert str(exc.value) == "sv_count, feature_count, and instances must be >= 1"

    def test_no_separable_draw_is_refused(self, monkeypatch):
        # every draw 0: each decision value is 0, inside the margin, on every attempt
        class Zeros:
            def uniform(self, low, high, size=None):
                return 0.0 if size is None else np.zeros(size)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Zeros())
        with pytest.raises(ValueError) as exc:
            make_synthetic(3, 2, 1, instances=1)
        assert str(exc.value) == "could not find separable fixtures for S=3, Fl=2"


def _svmlight_body(*lines: str) -> str:
    head = SVMLIGHT_TWO_SV.split("1 1:1.5")[0]
    return head.replace("3 # number of support", f"{len(lines) + 1} # number of support") + "".join(
        line + "\n" for line in lines
    )


# Lines with two faults each: the message names the fault the parsers have
# always reported first (a token that is no number anywhere on the line
# before a non-finite value; SVM-Light pairs checked left to right).
TWO_FAULT_CASES = [
    (lambda: parse_native_model("1 x nan\n", "0\n1\n"),
     MalformedModel, "line 1: support vectors: bad real 'x'"),
    (lambda: parse_native_model("1 nan x\n", "0\n1\n"),
     MalformedModel, "line 1: support vectors: bad real 'x'"),
    (lambda: parse_native_model("1 a b\n", "0\n1\n"),
     MalformedModel, "line 1: support vectors: bad real 'a'"),
    (lambda: parse_native_model("1 inf\n2 x\n", "0\n1\n1\n"),
     MalformedModel, "line 1: support vectors: non-finite value"),
    (lambda: parse_native_model("1 2\n3 x y\n", "0\n1\n1\n"),
     MalformedModel, "line 2: support vectors: bad real 'x'"),
    (lambda: parse_native_model("1 2\n3\n", "x\n1 inf\n"),
     MalformedModel, "line 2: support vectors: expected 2 values, got 1"),
    (lambda: parse_native_model("1\n", "0\ninf foo\n"),
     MalformedModel, "line 2: weights: bad real 'foo'"),
    (lambda: parse_native_model("1\n", "-inf\n1e999\n"),
     MalformedModel, "line 1: weights: non-finite value"),
    (lambda: parse_test_instance("1 inf x\n"),
     MalformedInstance, "test instance line 1: bad real 'x'"),
    (lambda: parse_test_instance("\n1 -inf 2e999\n3 q\n"),
     MalformedInstance, "test instance line 2: non-finite value"),
    (lambda: parse_test_instance("1 2\n3 x\n", 5),
     MalformedInstance, "test instance line 2: bad real 'x'"),
    (lambda: load_dataset("1,x,y,1\n"), MalformedDataset, "line 1: bad real 'x'"),
    (lambda: load_dataset("1,inf,x\n"), MalformedDataset, "line 1: bad real 'x'"),
    (lambda: load_dataset("inf,1,2\n"), MalformedDataset, "line 1: non-finite feature value"),
    (lambda: load_dataset("1, y ,nan\n"), MalformedDataset, "line 1: bad real 'y'"),
    (lambda: load_dataset("1,2,1\n1,x\n"), MalformedDataset, "line 2: expected 3 columns, got 2"),
    (lambda: load_dataset("1,2,1\nnan,x,1\n"), MalformedDataset, "line 2: bad real 'x'"),
    (lambda: load_dataset("1,2,1\n1,2,3\n1,x,1\n"),
     MalformedDataset, "line 2: label must be +1 or -1"),
    (lambda: parse_svmlight_model(_svmlight_body("1 1:x 2:inf #")),
     MalformedModel, "line 12: bad real 'x'"),
    (lambda: parse_svmlight_model(_svmlight_body("1 1:inf 2:x #")),
     MalformedModel, "line 12: non-finite feature value"),
    (lambda: parse_svmlight_model(_svmlight_body("x 1:y #")),
     MalformedModel, "line 12: bad real 'x'"),
    (lambda: parse_svmlight_model(_svmlight_body("inf 1:y #")),
     MalformedModel, "line 12: non-finite alpha*y weight"),
    (lambda: parse_svmlight_model(_svmlight_body("1 1:1 1:2 5:1")),
     MalformedModel, "line 12: duplicate feature index 1"),
    (lambda: parse_svmlight_model(_svmlight_body("1 5:1 1:1 1:2")),
     MalformedModel, "line 12: feature index 5 outside 1..2"),
    (lambda: parse_svmlight_model(_svmlight_body("1 a:1 3")),
     MalformedModel, "line 12: bad feature index 'a'"),
    (lambda: parse_svmlight_model(_svmlight_body("1 3 a:1")),
     MalformedModel, "line 12: expected idx:val pair, got '3'"),
    (lambda: parse_svmlight_model(_svmlight_body("1 1:2:3 2:inf")),
     MalformedModel, "line 12: bad real '2:3'"),
    (lambda: parse_svmlight_model(_svmlight_body("1 :5 1:")),
     MalformedModel, "line 12: bad feature index ''"),
    (lambda: parse_svmlight_model(_svmlight_body("1 2:1 1: 0:1")),
     MalformedModel, "line 12: bad real ''"),
    (lambda: parse_svmlight_model(_svmlight_body("1 1:1 2:2", "1 2:1 2:1e999")),
     MalformedModel, "line 13: duplicate feature index 2"),
    (lambda: parse_svmlight_model(_svmlight_body("1 1:nan", "x 2:1")),
     MalformedModel, "line 12: non-finite feature value"),
    (lambda: parse_svmlight_model(
        _svmlight_body("q 1:1").replace("0.5 # threshold", "inf # threshold")),
     MalformedModel, "line 11: threshold must be finite"),
    (lambda: parse_svmlight_model(
        SVMLIGHT_TWO_SV.replace("2 # highest", "0 # highest").replace("3 # number of s", "1 #")),
     MalformedModel, "line 8: highest feature index must be >= 1"),
    (lambda: parse_svmlight_model(
        SVMLIGHT_TWO_SV.replace("3 # number of s", "1 #").replace("0.5 # threshold", "x #")),
     MalformedModel, "line 10: support vector count must be >= 1"),
    (lambda: parse_svmlight_model(_svmlight_body("q 1:1").replace("0.5 # threshold", "x #")),
     MalformedModel, "line 11: bad real 'x'"),
    (lambda: TrainedModel(np.ones((1, 1, 2)), np.array([np.nan]), 0.0),
     MalformedModel, "support vectors must be 2-D and weights 1-D"),
    (lambda: TrainedModel(np.ones((1, 2)), np.ones((1, 1)), np.nan),
     MalformedModel, "support vectors must be 2-D and weights 1-D"),
    (lambda: TrainedModel(np.ones((2, 0)), np.ones(3), np.nan),
     MalformedModel, "need at least one support vector and one feature"),
    (lambda: TrainedModel(np.ones((0, 2)), np.ones(1), 0.0),
     MalformedModel, "need at least one support vector and one feature"),
    (lambda: TestInstance(np.array([[1.0, np.nan]])),
     MalformedInstance, "test instance must be a non-empty vector"),
    (lambda: TestInstance(np.ones(0)),
     MalformedInstance, "test instance must be a non-empty vector"),
]


@pytest.mark.parametrize("call,err_cls,message", TWO_FAULT_CASES)
def test_first_fault_message_is_pinned(call, err_cls, message):
    with pytest.raises(err_cls) as err:
        call()
    assert str(err.value) == message


# --------------------------------------------------------------------------
# the C text reader against the per-line float path


def _midpoint_text(low_bits: int) -> str:
    """The exact decimal halfway between a binary32 and the next one up."""
    lo, hi = np.array([low_bits, low_bits + 1], dtype=np.uint32).view(np.float32)
    with localcontext() as ctx:
        ctx.prec = 400
        return str((Decimal(float(lo)) + Decimal(float(hi))) / 2)


# Cells the two readers might take differently, in groups of equal weight:
# separators float() does not strip; other Unicode spaces and NUL; tokens
# that are no decimal to one reader, or lie beyond or at the edges of
# binary32; exact binary32 midpoints; line ends, blank and whitespace-only
# lines and empty cells; labels that only read as +/-1, or do not.
MUTANT_CELLS = st.one_of(
    st.sampled_from(["\x1c", "\x1d", "\x1e", "\x1f"]),
    st.sampled_from(["\xa0", "\u3000", "\x85", "\x00"]),
    st.sampled_from([
        "1_0", "\u0663", "nan", "-inf", "1e39", "1e400", "1e-50", "-0",
        MIDPOINT, ABOVE, OVERFLOW_MIDPOINT,
    ]),
    st.integers(0, 0x7F7FFFFE).map(_midpoint_text),
    st.sampled_from(["\n", "\r\n", "\n\n", " \t \n", "\n\xa0\n", "\r", "\x0c", "", " ", ",", ",,"]),
    st.sampled_from(["1.0", "+1", "-1", "0.99999999999999999999", "-1.0000000000000000001", "2"]),
)


@st.composite
def mutated(draw, text: str) -> str:
    """text with a few of its tokens, cells or separators rewritten."""
    pieces = re.split(r"([ ,\n])", text)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.sampled_from(range(len(pieces))))
        cell = draw(MUTANT_CELLS)
        pieces[i] = draw(st.sampled_from([cell, pieces[i] + cell, cell + pieces[i], ""]))
    return "".join(pieces)


@st.composite
def gen_texts(draw):
    """The four texts `svmsoc gen` writes, for a small drawn model and dataset."""
    model, dataset = make_synthetic(
        draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(0, 2**32)),
        instances=draw(st.integers(1, 5)),
    )
    svs, alpha = emit_native_model(model)
    csv = emit_dataset(dataset)
    if draw(st.integers(0, 3)) == 0:  # a one-column CSV
        csv = "".join(line.split(",")[-1] + "\n" for line in csv.splitlines())
    return model, svs, alpha, emit_test_instance(dataset.instances[0]), csv


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


# Rewrites of an SVM-Light body: separators the canonical dense layout does
# not use, characters `str.split` and the C reader take differently, tokens
# that are no canonical index or read as a real, and comment and line ends.
SVMLIGHT_CELLS = st.sampled_from([
    ": ", " :", "::", "\t", "\xa0", "\x1c", "\x7f", "1e2", "1.0", "01", "+1", "nan", "#", "\r",
])


@st.composite
def svmlight_texts(draw) -> str:
    """An SVM-Light text of a small drawn model, dense or sparse, its body mutated."""
    model, _ = make_synthetic(
        draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(0, 2**32)),
        instances=1,
    )
    lines = svmlight_text(model).splitlines(keepends=True)
    head, body = "".join(lines[:11]), lines[11:]
    if draw(st.booleans()):  # sparse: some pairs of each line, in order or not
        for i, line in enumerate(body):
            weight, *pairs, comment = line.split(" ")
            pairs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
            if draw(st.booleans()):
                pairs.sort(key=lambda pair: int(pair.split(":")[0]))
            body[i] = " ".join([weight, *pairs, comment])
    pieces = re.split(r"([ :\n])", "".join(body))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.sampled_from(range(len(pieces))))
        cell = draw(SVMLIGHT_CELLS)
        pieces[i] = draw(st.sampled_from([cell, pieces[i] + cell, cell + pieces[i], ""]))
    text = "".join(pieces)
    if draw(st.booleans()):  # a deleted span
        start = draw(st.integers(0, len(text)))
        text = text[:start] + text[draw(st.integers(start, len(text))) :]
    return head + text


def _svmlight_dense(model: TrainedModel, documents: int = 2) -> str:
    """The model in the benchmark's layout: `w 1:v ... Fl:v #` on every line."""
    head = svmlight_text(model).split("\n")[:11]
    head[6] = "empty # kernel parameter -u"
    head[8] = f"{documents} # number of training documents"
    rows = [
        " ".join([format_real(ay), *(f"{k}:{v}" for k, v in enumerate(format_reals(row), 1))])
        + " #"
        for ay, row in zip(model.alpha_y, model.support_vectors)
    ]
    return "\n".join(head + rows) + "\n"


class TestTextReader:
    """The C reader's path gives the per-line float path's results and errors."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_native_model_matches_the_per_line_reference(self, data):
        _, svs, alpha, _, _ = data.draw(gen_texts())
        svs, alpha = data.draw(mutated(svs)), data.draw(mutated(alpha))
        assert _outcome(lambda: parse_native_model(svs, alpha)) == _outcome(
            lambda: ref_text.parse_native_model(svs, alpha)
        ), (svs, alpha)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_instance_matches_the_per_line_reference(self, data):
        model, _, _, test, _ = data.draw(gen_texts())
        text = data.draw(mutated(test))
        fl = data.draw(st.sampled_from([None, model.feature_count, model.feature_count + 1]))
        assert _outcome(lambda: parse_test_instance(text, fl)) == _outcome(
            lambda: ref_text.parse_test_instance(text, fl)
        ), text

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_dataset_matches_the_per_line_reference(self, data):
        *_, csv = data.draw(gen_texts())
        text = data.draw(mutated(csv))
        got = _outcome(lambda: load_dataset(text))
        assert got == _outcome(lambda: ref_text.load_dataset(text)), text
        if isinstance(got, LabeledDataset):
            assert all(type(label) is int for label in got.labels)

    @pytest.mark.parametrize(
        "svs, alpha",
        [
            ("0.41\x1f 1\n", "0\n1\n"),  # float() refuses what the reader strips
            ("1 2\n3 4\n", "0\n1 2\n"),  # weights need not be one a line
            ("1 2\n\n \xa0\n3\u30004\r\n", "0 1 2\n"),
            ("1_0 2\n", "0\n1\n"),
            ("\u0663\n", "0\n1\n"),
            ("1 2\n3\n", "0\n1\n1\n"),
            ("1e39\n", "0\n1\n"),
            ("1e-50\n", "0\n1\n"),
            ("1\n", "0\n"),  # one weight short
        ],
    )
    def test_native_cases(self, svs, alpha):
        assert _outcome(lambda: parse_native_model(svs, alpha)) == _outcome(
            lambda: ref_text.parse_native_model(svs, alpha)
        )

    @pytest.mark.parametrize(
        "text",
        [
            "0.41\x1f,1\n", "0.5,1.0\n", "0.5,+1\n", "0.5,0.99999999999999999999\n",
            "0.5,2\n", "0.5\n-1\n", "1\n-1\n", "0.5,,1\n", "0.5,1\n  \n0.25,-1\n", "0.5,1\r\n",
            "0.5\xa0,1\n", "1_0,1\n", "nan,1\n", "0.5,nan\n", " \n", "",
        ],
    )
    def test_dataset_cases(self, text):
        assert _outcome(lambda: load_dataset(text)) == _outcome(
            lambda: ref_text.load_dataset(text)
        )

    def test_gen_fixtures_take_the_reader_path(self, monkeypatch, tmp_path):
        # with the per-line path unusable, the files `svmsoc gen` writes still parse
        from svmsoc.cli import main

        assert main(["gen", "61", "27", "7", "--out", str(tmp_path)]) == 0
        svs, alpha, test, csv = (
            (tmp_path / name).read_text()
            for name in ("svs.txt", "alpha.txt", "test.txt", "dataset.csv")
        )
        want = (
            ref_text.parse_native_model(svs, alpha),
            ref_text.parse_test_instance(test, 27),
            ref_text.load_dataset(csv),
        )

        # alpha values may span lines: the bias alone, then every weight on one line
        bias, *weights = alpha.split()
        alpha2 = f"{bias}\n{' '.join(weights)}\n"
        # a whitespace-only line, which the per-line path skips
        rows = csv.splitlines(keepends=True)
        csv2 = "".join(rows[:16] + ["  \t\n"] + rows[16:])
        want += (ref_text.parse_native_model(svs, alpha2), ref_text.load_dataset(csv2))

        def per_line_path(*args):
            raise AssertionError("the per-line path was taken")

        for reader in ("_svs_lines", "_parse_real_lines", "_dataset_lines"):
            monkeypatch.setattr(model_io, reader, per_line_path)
        assert (
            parse_native_model(svs, alpha),
            parse_test_instance(test, 27),
            load_dataset(csv),
            parse_native_model(svs, alpha2),
            load_dataset(csv2),
        ) == want

    @given(svmlight_texts())
    @settings(max_examples=500, deadline=None)
    def test_svmlight_matches_the_per_line_reference(self, text):
        assert _outcome(lambda: parse_svmlight_model(text)) == _outcome(
            lambda: ref_svmlight.parse_svmlight_model(text)
        ), text

    @pytest.mark.parametrize(
        "fl, lines",
        [
            (2, ["0.5 1:\t0.25 2:1"]),  # str.split and the reader split at a tab
            (2, ["0.5 1:\xa00.25 2:1"]),  # and at U+00A0
            (2, ["0.5 1:0.25 2:1\x7f"]),
            (2, ["0.5 1:0.25 2: 1:0.75", "0.7 2:0.5 0.1"]),  # colons counted across lines
            (2, ["0.5 2:0.25 1:1"]),  # out of order
            (2, ["0.5 01:0.25 2:1", "0.5 1:0.25 +2:1"]),  # int() reads both
            (2, ["0.5 1:0.25 2:1.0", "0.5 1:0.25 2:1e2"]),
            (2, ["0.5 1:0.25 1:1"]),
            (2, ["0.5 1:0.25 2:1", "0.5 1:0.25  2:1", "0.5\xa01:0.25 2:1\xa0"]),
            (1, ["0.5 1:", "0.25 1:"]),  # a value short on every line
            (1, ["0.5 1:2", "0.25 :1"]),
            (2, ["0.5 1:nan 2:1"]),
            (2, ["nan 1:0.5 2:1"]),
            (2, ["0.5 1:1_0 2:1"]),  # float() reads an underscore, the reader does not
            (2, [f"{MIDPOINT} 1:{ABOVE} 2:{MIDPOINT}", f"{BELOW} 1:{MIDPOINT} 2:{BELOW}"]),
            (12, ["0.5 " + " ".join(f"{k}:{k / 8}" for k in range(1, 13))]),
            (12, ["0.5 " + " ".join(f"{k}:{k / 8}" for k in [*range(1, 10), 11, 10, 12])]),
            (8000, ["0.5 " + " ".join(f"{k}:{k / 8}" for k in range(1, 8001))]),  # > 64 KiB
        ],
    )
    def test_svmlight_cases(self, fl, lines):
        text = _svmlight_body(*lines).replace("2 # highest", f"{fl} # highest")
        assert _outcome(lambda: parse_svmlight_model(text)) == _outcome(
            lambda: ref_svmlight.parse_svmlight_model(text)
        )

    @pytest.mark.parametrize("per_line", [False, True], ids=["reader", "per-line"])
    def test_svmlight_bodies_read_alike_on_either_path(self, monkeypatch, per_line):
        # with one path unusable, the other gives the reference's models
        small, _ = make_synthetic(61, 27, 7)
        stress, _ = make_synthetic(400, 64, 7)  # several blocks
        wide, _ = make_synthetic(2, 150, 7)  # three-digit indices
        texts = [svmlight_text(small), _svmlight_dense(stress, 32), _svmlight_dense(wide)]
        # the stress model sparse: half of each line's pairs, out of order
        rng = np.random.default_rng(7)
        lines = texts[1].splitlines()
        for i in range(11, len(lines)):
            weight, *pairs, comment = lines[i].split(" ")
            kept = [pairs[k] for k in rng.permutation(len(pairs))[: len(pairs) // 2]]
            lines[i] = " ".join([weight, *kept, comment])
        sparse = "\n".join(lines) + "\n"
        want = [ref_svmlight.parse_svmlight_model(text) for text in texts]
        assert want == [small, stress, wide]

        def per_line_path(*args):
            raise AssertionError("the per-line path was taken")

        if per_line:
            monkeypatch.setattr(model_io, "_dense_body", lambda rows, feature_count: None)
            texts.append(sparse)
            want.append(ref_svmlight.parse_svmlight_model(sparse))
        else:
            monkeypatch.setattr(model_io, "_svmlight_lines", per_line_path)
            with pytest.raises(AssertionError, match="per-line path"):
                parse_svmlight_model(sparse)
        assert [parse_svmlight_model(text) for text in texts] == want


# --------------------------------------------------------------------------
# long fractions, cut before the C reader reads them

# 1e-20 above the binary32 midpoint after 0x3F000021 (0.5000019967555999755859375):
# the cut to 14 fraction digits moves it about 90 binary64 ulps below the
# midpoint, so only the value read again from the whole token rounds up.
NEAR_HALF = "0.5000019967555999755959375"
# the same, written with an exponent: a cut of the mantissa would move it 1e-13
NEAR_SIXTEEN = "1.6000000953674316406250000001e1"  # above 16 + 2**-20, a midpoint


def _long(value: float, digits: int) -> str:
    """value's exact decimal, positional and rounded to digits fraction digits."""
    return format(Decimal(value), f".{digits}f")


def _nudged_midpoint(low_bits: int, offset: Decimal, exponent_form: bool) -> str:
    with localcontext() as ctx:
        ctx.prec = 400
        value = Decimal(_midpoint_text(low_bits)) + offset
        return format(value, "e" if exponent_form else "f")


@st.composite
def long_cells(draw) -> str:
    """A real with a long fraction: binary32 values with 15 to 25 fraction digits,
    binary32 midpoints nudged by 1e-20 to 1e-13 either way (positional, or with
    an exponent), values below 2**-126 and near 2**128, and a long fraction
    holding a character no real holds."""
    kind = draw(st.integers(0, 5))
    digits = draw(st.integers(15, 25))
    sign = draw(st.sampled_from(["", "-"]))
    if kind == 0:
        value = draw(st.floats(-1, 1, width=32))
        return _long(value, digits)
    if kind in (1, 2):
        low = draw(st.one_of(st.integers(0x3A000000, 0x4B000000), st.integers(0, 0x7F7FFFFE)))
        offset = Decimal(draw(st.sampled_from([-1, 1]))).scaleb(-draw(st.integers(13, 20)))
        return sign + _nudged_midpoint(low, offset, exponent_form=kind == 2)
    if kind == 3:  # below the least normal binary32, some on a subnormal midpoint
        low = draw(st.integers(0, 0x007FFFFF))
        offset = Decimal(draw(st.sampled_from([-1, 0, 1]))).scaleb(-draw(st.integers(46, 60)))
        return sign + _nudged_midpoint(low, offset, exponent_form=False)
    if kind == 4:  # around the binary32 overflow midpoint, with a long fraction
        offset = draw(st.integers(-3, 3)) + Decimal(draw(st.integers(1, 9))).scaleb(-digits)
        return sign + format(Decimal(OVERFLOW_MIDPOINT) + offset, "f")
    text = _long(draw(st.floats(-1, 1, width=32)), digits)
    at = draw(st.integers(text.index(".") + 1, len(text)))
    return text[:at] + draw(st.sampled_from(["x", "_"])) + text[at:]


LONG_LABELS = st.sampled_from([
    "1", "-1", "1.00000000000000000000", "0.99999999999999999999", "-1.0000000000000000001",
    "1.000000000000001", "1.0000000000000001", "-0.999999999999999",
])


@st.composite
def long_texts(draw):
    """Texts for each text parser built from long_cells, the first cell always long."""
    s, fl = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    first = _long(draw(st.floats(-1, 1, width=32)), draw(st.integers(15, 25)))
    count = s * fl + s + fl
    cells = [first] + draw(st.lists(long_cells(), min_size=count, max_size=count))
    rows = [cells[r * fl : (r + 1) * fl] for r in range(s)]
    weights = cells[s * fl : s * fl + s + 1]
    instance = cells[-fl:]
    labels = draw(st.lists(LONG_LABELS, min_size=s, max_size=s))
    svs = "".join(" ".join(row) + "\n" for row in rows)
    alpha = "\n".join(weights) + "\n"
    csv = "".join(",".join(row + [label]) + "\n" for row, label in zip(rows, labels))
    body = [
        " ".join([w, *(f"{k}:{v}" for k, v in enumerate(row, 1))])
        for w, row in zip(weights[1:], rows)
    ]
    light = _svmlight_body(*body).replace("2 # highest", f"{fl} # highest").replace(
        "0.5 # threshold", f"{weights[0]} # threshold"
    )
    return svs, alpha, " ".join(instance) + "\n", csv, light


class TestLongFractions:
    """A text with long fractions is read cut, and gives the whole decimals' results."""

    @pytest.fixture(autouse=True)
    def cut_short_texts(self, monkeypatch):
        monkeypatch.setattr(model_io, "_CUT_MIN", 0)

    def test_a_cut_that_crosses_a_midpoint_is_read_again(self):
        want = [0x3F000022]
        native = parse_native_model(f"{NEAR_HALF}\n", f"{NEAR_HALF}\n{NEAR_HALF}\n")
        assert _f32_bits(native.support_vectors[0]) == want
        assert _f32_bits([native.bias, native.alpha_y[0]]) == want * 2
        assert _f32_bits(parse_test_instance(NEAR_HALF).values) == want
        assert _f32_bits(load_dataset(f"{NEAR_HALF},1\n").features[0]) == want
        light = parse_svmlight_model(
            _svmlight_body(f"{NEAR_HALF} 1:{NEAR_HALF} 2:{NEAR_HALF}")
        )
        assert _f32_bits([*light.support_vectors[0], light.alpha_y[0]]) == want * 3

    def test_an_exponent_keeps_its_fraction(self):
        want = [0x41800001]  # above the midpoint, 16 + 2**-19
        assert _f32_bits(parse_test_instance(f"{NEAR_HALF} {NEAR_SIXTEEN}").values[1:]) == want

    @pytest.mark.parametrize(
        "token, bits",
        [
            (_nudged_midpoint(0, Decimal("1e-60"), False), 0x00000001),  # reads 0 cut
            (_nudged_midpoint(0, Decimal("-1e-60"), False), 0x00000000),
            ("-" + _nudged_midpoint(0x7F7FFFFE, Decimal("1e-14"), False), 0xFF7FFFFF),
        ],
    )
    def test_values_beyond_the_normal_range(self, token, bits):
        assert _f32_bits(parse_test_instance(f"{NEAR_HALF} {token}").values[1:]) == [bits]

    @pytest.mark.parametrize(
        "label", [
            "1.000000000000001", "0.99999999999999999999", "-1.0000000000000000001",
            # either side of the length a label's cut can reach +/-1 from: "1." and 14
            # digits is not cut, "1." and 15 is, and "." and 15 stays below 1 cut or whole
            "1.00000000000000", "1.00000000000001", "1.000000000000009", "-1.000000000000009",
            "1.000000000000000", ".999999999999999", "-.999999999999999", " .99999999999999",
        ]
    )
    def test_labels_read_whole(self, label):
        text = f"{NEAR_HALF},{label}\n"
        assert _outcome(lambda: load_dataset(text)) == _outcome(
            lambda: ref_text.load_dataset(text)
        )

    def test_blocks_past_the_first(self):
        # a cut block far into a text, and one left whole (a 15-digit integer part)
        tokens = list(map(repr, np.random.default_rng(7).uniform(-1, 1, 64).tolist()))
        rows = [" ".join(tokens)] * 200
        rows[150] = " ".join([NEAR_HALF, "123456789012345.5", *tokens[2:]])
        rows[190] = " ".join([NEAR_HALF, *tokens[1:]])
        svs = "\n".join(rows) + "\n"
        alpha = "\n".join(["0.5"] * 201) + "\n"
        assert len(svs) > 3 * model_io._BLOCK_BYTES  # several blocks
        model = parse_native_model(svs, alpha)
        assert model == ref_text.parse_native_model(svs, alpha)
        assert _f32_bits(model.support_vectors[[150, 190], 0]) == [0x3F000022] * 2

    @pytest.mark.parametrize("block_bytes", [16, 1 << 16])
    @pytest.mark.parametrize(
        "ends",
        [
            ["\r\n"], ["\r"], ["\v"], ["\f"], ["\n", "\r\n", "\r", "\v", "\f"],
            ["\n", "  \n", "\t\r\n \f\n"],  # whitespace-only lines between rows
        ],
        ids=repr,
    )
    def test_lines_end_where_str_splitlines_ends_them(self, monkeypatch, ends, block_bytes):
        # at 16 bytes every line is longer than a block, and a "\r\n" may fall across two
        monkeypatch.setattr(model_io, "_BLOCK_BYTES", block_bytes)
        rows = [[NEAR_HALF, "-0.12345678901234567"], ["0.25", NEAR_HALF], [NEAR_HALF, "2.5"]]
        lines = [(cells, ends[i % len(ends)]) for i, cells in enumerate(rows)]
        svs = "".join(" ".join(cells) + end for cells, end in lines)
        alpha = "".join(f"{NEAR_HALF}{end}" for _, end in [*lines, lines[0]])
        csv = "".join(",".join([*cells, "-1"]) + end for cells, end in lines)
        for parse, ref, args in [
            (parse_native_model, ref_text.parse_native_model, (svs, alpha)),
            (parse_test_instance, ref_text.parse_test_instance, (svs,)),
            (load_dataset, ref_text.load_dataset, (csv,)),
        ]:
            assert _outcome(lambda: parse(*args)) == _outcome(lambda: ref(*args))
        assert _f32_bits(parse_native_model(svs, alpha).support_vectors[:, 0]) == [
            0x3F000022, 0x3E800000, 0x3F000022,
        ]

    def test_a_line_longer_than_a_block(self):
        tokens = list(map(repr, np.random.default_rng(8).uniform(-1, 1, 8000).tolist()))
        tokens[4000] = NEAR_HALF
        line = " ".join(tokens)
        assert len(line) > 2 * model_io._BLOCK_BYTES  # cut in pieces too
        for end in ("\n", "\r\n"):
            svs, alpha = f"{line}{end}{line}{end}", "0.5\n0.5\n0.5\n"
            csv = f"{line.replace(' ', ',')},1{end}" * 2
            model = parse_native_model(svs, alpha)
            assert model == ref_text.parse_native_model(svs, alpha)
            assert load_dataset(csv) == ref_text.load_dataset(csv)
            assert _f32_bits(model.support_vectors[:, 4000]) == [0x3F000022] * 2

    def test_a_repr_csv_keeps_its_labels_from_the_cut_read(self, monkeypatch):
        # labels written as integers are never cut, so the cut text's labels stand
        model, dataset = make_synthetic(61, 27, 7, instances=200)
        rows = dataset.features.astype(np.float64).tolist()
        csv = "".join(
            ",".join(map(repr, row)) + f",{label}\n" for row, label in zip(rows, dataset.labels)
        )
        want = ref_text.load_dataset(csv)
        assert model_io._reader_lines(csv)[1]  # the text is cut

        def refused(*args):
            raise AssertionError("the labels were read again")

        monkeypatch.setattr(model_io, "_whole_labels", refused)
        monkeypatch.setattr(model_io, "_dataset_lines", refused)
        assert load_dataset(csv) == want

    @given(long_texts(), st.sampled_from([16, 64, 1 << 16]))
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],  # it only sets _CUT_MIN
    )
    def test_every_parser_matches_its_reference(self, texts, block_bytes):
        svs, alpha, instance, csv, light = texts
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model_io, "_BLOCK_BYTES", block_bytes)
            for parse, ref, args in [
                (parse_native_model, ref_text.parse_native_model, (svs, alpha)),
                (parse_test_instance, ref_text.parse_test_instance, (instance,)),
                (load_dataset, ref_text.load_dataset, (csv,)),
                (parse_svmlight_model, ref_svmlight.parse_svmlight_model, (light,)),
            ]:
                assert _outcome(lambda: parse(*args)) == _outcome(lambda: ref(*args)), texts
