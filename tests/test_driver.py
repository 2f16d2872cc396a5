import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svmsoc import (
    ClockPair,
    DimensionError,
    FlMismatch,
    LabeledDataset,
    TestInstance,
    TrainedModel,
    UnknownCalibration,
    batch_classify,
    cosim,
    emit_stream,
    f32_bits,
    make_synthetic,
    run_accelerator,
    run_oracle,
    run_software_reference,
    stream_word_count,
)

import ref32
from conftest import edge_lane_case, random_instance, random_model

F32 = np.float32


def model_of(rows, ay, bias=0.0):
    return TrainedModel(np.array(rows, F32), np.array(ay, F32), bias)


class TestSoftwareReference:
    def test_single_cell(self):
        m = model_of([[2.0]], [1.0])
        res = run_software_reference(m, TestInstance(np.array([3.0], F32)))
        assert res.distance == 6.0 and res.label == 1

    def test_cancelling_rows_give_minus_bias(self):
        m = model_of([[0.3, -1.1]] * 2, [1.0, -1.0], bias=0.125)
        res = run_software_reference(m, TestInstance(np.array([9.0, 9.0], F32)))
        assert res.distance == -0.125

    def test_rounds_after_every_op_like_hardware(self):
        m = model_of([[1e8], [1.0]], [1.0, 1.0])
        res = run_software_reference(m, TestInstance(np.array([1.0], F32)))
        assert res.distance == 1e8

    def test_dimension_mismatch(self):
        m = model_of([[1.0, 2.0]], [1.0])
        with pytest.raises(DimensionError):
            run_software_reference(m, TestInstance(np.array([1.0], F32)))

    @given(
        st.integers(1, 24),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 1e3, 1e35]),
    )
    @settings(max_examples=250, deadline=None)
    # the paper's sizes and the stress size: chains of hundreds of rounded adds
    @example(61, 27, 61, 1.0)
    @example(248, 27, 248, 1e3)
    @example(346, 27, 346, 1.0)
    @example(400, 64, 400, 1.0)
    def test_bit_identical_to_accelerator_and_struct_reference(self, s, fl, seed, scale):
        rng = np.random.default_rng(seed)
        m = random_model(rng, s, fl, scale=scale)
        t = random_instance(rng, fl, scale=scale)
        hw = run_accelerator(emit_stream(m, t), s, fl)
        sw = run_software_reference(m, t)
        assert hw.label == sw.label
        assert f32_bits(hw.distance) == f32_bits(sw.distance)
        assert f32_bits(hw.raw_distance) == f32_bits(sw.raw_distance)
        label, dist, _raw = ref32.classify(
            m.support_vectors.tolist(), m.alpha_y.tolist(), t.values.tolist(), m.bias
        )
        assert (sw.label, f32_bits(sw.distance)) == (label, f32_bits(dist))


class TestOracle:
    def test_exact_small_case(self):
        m = model_of([[2.0]], [1.0])
        assert run_oracle(m, TestInstance(np.array([3.0], F32))) == (1, 6.0)

    def test_cancellation_is_exact_in_double(self):
        m = model_of([[0.1, 0.2]] * 2, [1.0, -1.0], bias=0.5)
        label, d = run_oracle(m, TestInstance(np.array([7.0, 8.0], F32)))
        assert d == -0.5 and label == -1

    def test_scaling_instance_by_power_of_two_scales_distance(self, rng):
        m = random_model(rng, 8, 5)
        m = TrainedModel(m.support_vectors, m.alpha_y, 0.0)
        x = random_instance(rng, 5)
        _, d1 = run_oracle(m, x)
        _, d2 = run_oracle(m, TestInstance(x.values * F32(4.0)))
        assert d2 == 4.0 * d1

    def test_binary32_path_tracks_oracle_on_bounded_models(self, rng):
        for _ in range(50):
            m = random_model(rng, 12, 6)
            t = random_instance(rng, 6)
            _, d64 = run_oracle(m, t)
            d32 = run_software_reference(m, t).distance
            assert d32 == pytest.approx(d64, rel=1e-5, abs=1e-5)

    def test_label_scale_invariant_under_weight_scaling(self, rng):
        # scaling all alpha*y and the bias by 2^k is exact in binary32 and
        # in the double dot products, so the oracle label cannot move
        for k in (-12, -3, 1, 4, 10):
            c = F32(2.0**k)
            m = random_model(rng, 9, 4)
            scaled = TrainedModel(
                m.support_vectors, m.alpha_y * c, float(F32(m.bias) * c)
            )
            x = random_instance(rng, 4)
            label, d = run_oracle(m, x)
            label2, d2 = run_oracle(scaled, x)
            assert label2 == label
            assert d2 == float(c) * d

    def test_label_matches_oracle_outside_relative_margin(self, rng):
        # moderate sizes, values in [-10, 10]: whenever the double decision
        # value clears the 1e-3 relative margin, binary32 agrees on the label
        checked = 0
        for _ in range(400):
            s, fl = int(rng.integers(1, 26)), int(rng.integers(1, 13))
            m = TrainedModel(
                rng.uniform(-10, 10, (s, fl)).astype(F32),
                rng.uniform(-10, 10, s).astype(F32),
                float(rng.uniform(-10, 10)),
            )
            t = TestInstance(rng.uniform(-10, 10, fl).astype(F32))
            olabel, d = run_oracle(m, t)
            if abs(d) <= 1e-3 * (1.0 + abs(d)):
                continue
            checked += 1
            assert run_software_reference(m, t).label == olabel
        assert checked > 350


def small_fixture(seed=7):
    return make_synthetic(61, 27, seed)


class TestCosim:
    def test_measured_anchor_at_250_250(self):
        m, ds = small_fixture()
        rep = cosim(m, ds.instances[0], "pipeline-inner", ClockPair(250, 250))
        assert rep.cycle_source == "measured_anchor"
        assert (rep.hw_cycles, rep.sw_cycles, rep.sw_cycles_optimized) == (
            3693,
            77367,
            22398,
        )
        assert round(rep.cycle_speedup_plain, 2) == 20.95
        assert round(rep.cycle_speedup_optimized, 2) == 6.06
        assert rep.hw_time_us == pytest.approx(14.77, abs=0.01)
        assert rep.sw_time_us == pytest.approx(309.47, abs=0.01)
        assert rep.sw_opt_time_us == pytest.approx(89.59, abs=0.01)
        # equal clocks: time speedup equals cycle speedup
        assert rep.time_speedup_plain == pytest.approx(rep.cycle_speedup_plain)
        assert rep.results_match

    def test_speedups_equal_cycle_ratios_in_same_report(self):
        m, ds = small_fixture()
        for clocks in (ClockPair(250, 250), ClockPair(250, 666.67)):
            rep = cosim(m, ds.instances[0], "pipeline-inner", clocks)
            assert rep.cycle_speedup_plain == rep.sw_cycles / rep.hw_cycles
            assert rep.cycle_speedup_optimized == rep.sw_cycles_optimized / rep.hw_cycles
            assert rep.time_speedup_plain == rep.sw_time_us / rep.hw_time_us
            assert rep.time_speedup_optimized == rep.sw_opt_time_us / rep.hw_time_us

    def test_second_measured_design_at_250_250(self):
        m, ds = small_fixture()
        rep = cosim(m, ds.instances[0], "unroll-most", ClockPair(250, 250))
        assert rep.hw_cycles == 3690 and rep.cycle_source == "measured_anchor"
        # published figure is 20.96; the exact ratio is 20.9667
        assert rep.cycle_speedup_plain == pytest.approx(20.96, abs=0.01)

    def test_cross_clock_pairing_time_speedups(self):
        m, ds = small_fixture()
        rep = cosim(m, ds.instances[0], "pipeline-inner", ClockPair(250, 666.67))
        assert (rep.hw_cycles, rep.sw_cycles, rep.sw_cycles_optimized) == (
            2815,
            28968,
            8431,
        )
        assert rep.time_speedup_plain == pytest.approx(3.86, abs=0.01)
        assert rep.time_speedup_optimized == pytest.approx(1.12, abs=0.01)
        assert round(rep.cycle_speedup_plain, 2) == 10.29
        assert rep.sw_timer_mhz == 666.67

    def test_timer_base_for_100mhz_pairing(self):
        m, ds = make_synthetic(248, 27, 3, instances=2)
        rep = cosim(m, ds.instances[0], "pipeline-inner", ClockPair(100, 666.67))
        # counts for this pairing are 100 MHz timer ticks, so times divide by 100
        assert rep.sw_timer_mhz == 100.0
        assert rep.sw_cycles == 309378
        assert rep.sw_time_us == pytest.approx(3093.78, abs=0.01)
        assert rep.hw_cycles == 14138 + stream_word_count(248, 27)
        assert rep.cycle_source == "estimated"

    def test_estimated_source_when_no_measured_anchor(self):
        m, ds = small_fixture()
        rep = cosim(m, ds.instances[0], "interface-only", ClockPair(250, 250))
        assert rep.cycle_source == "estimated"
        assert rep.hw_cycles == 40885 + stream_word_count(61, 27)

    def test_strict_refuses_estimates(self):
        m, ds = small_fixture()
        with pytest.raises(UnknownCalibration):
            cosim(
                m,
                ds.instances[0],
                "interface-only",
                ClockPair(250, 250),
                strict=True,
            )
        rep = cosim(
            m, ds.instances[0], "pipeline-inner", ClockPair(250, 250), strict=True
        )
        assert rep.cycle_source == "measured_anchor"

    def test_strict_requires_arm_anchor_too(self):
        m, ds = make_synthetic(100, 27, 1, instances=2)
        with pytest.raises(UnknownCalibration):
            cosim(
                m,
                ds.instances[0],
                "pipeline-inner",
                ClockPair(100, 666.67),
                strict=True,
            )

    def test_single_point_arm_refuses_other_sizes(self):
        m, ds = make_synthetic(100, 27, 1, instances=2)
        with pytest.raises(UnknownCalibration):
            cosim(m, ds.instances[0], "pipeline-inner", ClockPair(250, 250))

    def test_uncalibrated_pairing(self):
        m, ds = small_fixture()
        with pytest.raises(UnknownCalibration):
            cosim(m, ds.instances[0], "pipeline-inner", ClockPair(300, 666.67))

    def test_feature_count_must_match_calibration(self):
        m, ds = make_synthetic(61, 13, 1, instances=2)
        with pytest.raises(FlMismatch):
            cosim(m, ds.instances[0], "pipeline-inner", ClockPair(250, 250))

    def test_clock_pair_must_be_positive(self):
        with pytest.raises(ValueError):
            ClockPair(0, 666.67)


class TestBatchClassify:
    def test_synthetic_dataset_scores_perfectly(self):
        m, ds = small_fixture()
        rep = batch_classify(m, ds)
        assert rep.accuracy_percent == 100.0
        assert rep.correct == rep.total == len(ds)

    def test_flipped_labels_score_zero(self):
        m, ds = small_fixture()
        flipped = LabeledDataset(ds.instances, tuple(-l for l in ds.labels))
        assert batch_classify(m, flipped).accuracy_percent == 0.0

    def test_accuracy_invariant_under_permutation(self, rng):
        m, ds = make_synthetic(9, 4, 2, instances=16)
        order = rng.permutation(len(ds))
        shuffled = LabeledDataset(
            tuple(ds.instances[i] for i in order),
            tuple(ds.labels[i] for i in order),
        )
        assert (
            batch_classify(m, shuffled).accuracy_percent
            == batch_classify(m, ds).accuracy_percent
        )

    def test_dimension_mismatch(self):
        m, _ = make_synthetic(3, 4, 0, instances=2)
        _, ds = make_synthetic(3, 5, 0, instances=2)
        with pytest.raises(DimensionError):
            batch_classify(m, ds)

    def test_distances_come_from_binary32_path(self):
        m, ds = make_synthetic(9, 4, 2, instances=4)
        rep = batch_classify(m, ds)
        for inst, dist in zip(ds.instances, rep.distances):
            assert dist == run_software_reference(m, inst).distance

    @given(edge_lane_case(max_rows=12), st.sampled_from([0.0, 0.5, -1e30]))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_row_reference_on_edge_lanes(self, case, threshold):
        m, rows, _kind = case
        ds = LabeledDataset(tuple(TestInstance(x) for x in rows), (1,) * len(rows))
        rep = batch_classify(m, ds, threshold)
        sv, ay = m.support_vectors.tolist(), m.alpha_y.tolist()
        for inst, label, dist in zip(ds.instances, rep.predictions, rep.distances):
            sw = run_software_reference(m, inst, threshold)
            assert (label, f32_bits(dist)) == (sw.label, f32_bits(sw.distance))
            want, want_dist, _raw = ref32.classify(
                sv, ay, inst.values.tolist(), m.bias, threshold
            )
            assert (label, f32_bits(dist)) == (want, f32_bits(want_dist))
