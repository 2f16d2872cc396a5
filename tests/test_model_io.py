import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svmsoc import (
    FrameLengthError,
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

    @given(st.text(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_dataset_parser_is_total(self, text):
        try:
            load_dataset(text)
        except SvmSocError:
            pass


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
            threshold=0.25,
        )
        t = TestInstance(np.array([0.8, -0.9], np.float32))
        m2, t2 = parse_stream(emit_stream(m, t), 2, 2)
        # the frame does not carry the threshold
        assert m2 == TrainedModel(m.support_vectors, m.alpha_y, m.bias)
        assert t2 == t

    def test_bytes_round_trip(self):
        frame = StreamFrame(np.arange(9, dtype=np.uint32))
        assert StreamFrame.from_bytes(frame.to_bytes()) == frame
        with pytest.raises(FrameLengthError):
            StreamFrame.from_bytes(b"\x00\x01\x02")

    def test_non_finite_frame_fails_validated_parse(self):
        words = np.zeros(9, np.uint32)
        words[0] = 0x7FC00000  # quiet NaN in a support vector slot
        with pytest.raises(MalformedModel):
            parse_stream(StreamFrame(words), 2, 2)

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
