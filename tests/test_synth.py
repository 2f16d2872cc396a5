import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svmsoc import (
    ANCHOR_EXACT,
    EXTRAPOLATED,
    INTERPOLATED,
    AnchorRow,
    CalibrationError,
    DirectiveConfig,
    FlMismatch,
    InsufficientAnchors,
    UnknownCalibration,
    UnknownDesign,
    default_calibration,
    estimate_arm_cycles,
    estimate_design,
    estimate_latency,
    estimate_power,
    estimate_resources,
    explore,
    fit_calibration,
    load_calibration,
    parse_anchor_csv,
    save_calibration,
    stream_word_count,
)
from svmsoc.synth import SHIPPED_ANCHORS, AffineFit, PointFit

# slope/intercept of the affine latency fits through the two 100 MHz anchor
# sizes (S=248 and S=346), solved by hand from the anchor table
TWO_POINT_LATENCY_FITS = {
    "interface-only": (331, 372),
    "pipeline-inner": (56, 250),
    "pipeline-most": (56, 241),
    "pipeline-all": (56, 241),
    "unroll-inner": (39, 204),
    "unroll-most": (33, 182),
    "partition-cyclic-2": (55, 218),
    "partition-complete": (94, 200),
}
# the three fits whose slope is not an integer, as exact rationals
FRACTIONAL_LATENCY_SLOPES = {
    "partition-cyclic-8": Fraction(19215 - 13827, 98),
    "partition-cyclic-16": Fraction(12960 - 9336, 98),
    "partition-block-2": Fraction(59125 - 42217, 98),
}


class TestDirectiveConfig:
    @pytest.mark.parametrize(
        "token,kind,scope,factor",
        [
            ("interface-only", "interface_only", None, None),
            ("resource-bram", "array_resource", "bram", None),
            ("pipeline-inner", "pipeline", "inner", None),
            ("unroll-most", "unroll", "most", None),
            ("unroll-partial-2", "unroll", "partial", 2),
            ("partition-cyclic-16", "array_partition", "cyclic", 16),
            ("partition-block-2", "array_partition", "block", 2),
            ("partition-complete", "array_partition", "complete", None),
        ],
    )
    def test_parse_and_name_round_trip(self, token, kind, scope, factor):
        cfg = DirectiveConfig.parse(token)
        assert (cfg.kind, cfg.scope, cfg.factor) == (kind, scope, factor)
        assert cfg.name == token
        assert DirectiveConfig.parse(cfg.name) == cfg

    @pytest.mark.parametrize(
        "alias,canonical",
        [
            ("pipeline_inner", "pipeline-inner"),
            ("interface_only", "interface-only"),
            ("interfaces", "interface-only"),
            ("cyclic-8", "partition-cyclic-8"),
            ("block_2", "partition-block-2"),
            ("complete", "partition-complete"),
            ("array_partition_cyclic_16", "partition-cyclic-16"),
            ("array-resource-lut", "resource-lut"),
            ("PIPELINE-ALL", "pipeline-all"),
        ],
    )
    def test_aliases(self, alias, canonical):
        assert DirectiveConfig.parse(alias).name == canonical

    @pytest.mark.parametrize(
        "bad", ["pipeline-bogus", "unroll-partial-1", "partition-cyclic-0", "what", ""]
    )
    def test_rejects_nonsense(self, bad):
        with pytest.raises(ValueError):
            DirectiveConfig.parse(bad)

    def test_factor_rules(self):
        with pytest.raises(ValueError):
            DirectiveConfig("pipeline", "inner", factor=4)
        with pytest.raises(ValueError):
            DirectiveConfig("unroll", "partial")
        with pytest.raises(ValueError):
            DirectiveConfig("array_partition", "complete", factor=2)


class TestFitCalibration:
    def test_two_point_fits_solve_exactly(self):
        cal = default_calibration()
        for token, (slope, intercept) in TWO_POINT_LATENCY_FITS.items():
            fit = cal.latency[(token, 100.0)].fit
            assert isinstance(fit, AffineFit)
            assert fit.slope == pytest.approx(slope, abs=1e-9)
            assert fit.intercept == pytest.approx(intercept, abs=1e-9)

    def test_fractional_slopes_match_hand_solution(self):
        cal = default_calibration()
        for token, frac in FRACTIONAL_LATENCY_SLOPES.items():
            fit = cal.latency[(token, 100.0)].fit
            assert fit.slope == pytest.approx(float(frac), abs=1e-12)
        # block partitioning extrapolates to a negative intercept
        assert cal.latency[("partition-block-2", 100.0)].fit.intercept < 0

    def test_per_feature_decomposition_attaches_where_it_fits(self):
        cal = default_calibration()
        assert cal.latency[("interface-only", 100.0)].per_feature == (11, 23)
        assert cal.latency[("pipeline-inner", 100.0)].per_feature == (2, 0)
        assert cal.latency[("unroll-most", 100.0)].per_feature is None
        # single-anchor entries cannot confirm a slope
        assert cal.latency[("pipeline-inner", 250.0)].per_feature is None

    def test_single_rows_become_point_fits(self):
        cal = default_calibration()
        fit = cal.latency[("unroll-most", 250.0)].fit
        assert isinstance(fit, PointFit) and fit.value == 2653

    def test_three_collinear_rows_recover_the_line(self):
        rows = [
            (100, 27, "pipeline-inner", 100.0, 56 * 100 + 250, 1, 1, 1, 1),
            (200, 27, "pipeline-inner", 100.0, 56 * 200 + 250, 1, 1, 1, 1),
            (300, 27, "pipeline-inner", 100.0, 56 * 300 + 250, 1, 1, 1, 1),
        ]
        fit = fit_calibration(rows).latency[("pipeline-inner", 100.0)].fit
        assert fit.slope == pytest.approx(56) and fit.intercept == pytest.approx(250)

    def test_duplicate_identical_rows_are_deduped(self):
        rows = list(SHIPPED_ANCHORS) + [SHIPPED_ANCHORS[0]]
        cal = fit_calibration(rows)
        assert cal.latency[("interface-only", 100.0)].anchors[248] == 82460

    def test_conflicting_duplicate_rows_rejected(self):
        clash = SHIPPED_ANCHORS[0]._replace(latency_cycles=1)
        with pytest.raises(ValueError, match="conflicting"):
            fit_calibration(list(SHIPPED_ANCHORS) + [clash])

    def test_mixed_feature_counts_rejected(self):
        rows = [
            (100, 27, "pipeline-inner", 100.0, 5850, 1, 1, 1, 1),
            (200, 28, "pipeline-inner", 100.0, 11450, 1, 1, 1, 1),
        ]
        with pytest.raises(ValueError, match="mix feature"):
            fit_calibration(rows)

    def test_require_missing_pair(self):
        with pytest.raises(InsufficientAnchors, match="unroll-most"):
            fit_calibration(SHIPPED_ANCHORS[:3], require=[("unroll-most", 250)])

    def test_require_on_empty_table(self):
        with pytest.raises(InsufficientAnchors):
            fit_calibration([], require=[("pipeline-inner", 100)])


class TestLatencyEstimates:
    @pytest.mark.parametrize("row", SHIPPED_ANCHORS, ids=lambda r: f"{r.directive}@{r.regime_mhz:g}/S{r.sv_count}")
    def test_every_anchor_reproduces_exactly(self, row):
        est = estimate_latency(row.sv_count, row.feature_count, row.directive, row.regime_mhz)
        assert est.latency_cycles == row.latency_cycles
        assert est.throughput_cycles == row.latency_cycles + 1
        assert est.validity == ANCHOR_EXACT

    def test_baseline_closed_form(self):
        # the streamed-read baseline costs (11*(Fl+1)+23) per SV plus 372
        for s in (1, 61, 100, 248, 297, 346, 400):
            est = estimate_latency(s, 27, "interface-only", 100)
            assert est.latency_cycles == (11 * 28 + 23) * s + 372

    def test_pipelined_inner_closed_form(self):
        for s in (1, 61, 100, 248, 297, 346, 400):
            est = estimate_latency(s, 27, "pipeline-inner", 100)
            assert est.latency_cycles == 2 * s * 28 + 250

    def test_feature_count_generalization(self):
        est = estimate_latency(248, 30, "interface-only", 100)
        assert est.latency_cycles == (11 * 31 + 23) * 248 + 372
        assert est.validity == EXTRAPOLATED
        est = estimate_latency(61, 13, "pipeline-inner", 100)
        assert est.latency_cycles == 2 * 61 * 14 + 250

    def test_validity_tags(self):
        assert estimate_latency(248, 27, "unroll-most", 100).validity == ANCHOR_EXACT
        assert estimate_latency(300, 27, "unroll-most", 100).validity == INTERPOLATED
        assert estimate_latency(400, 27, "unroll-most", 100).validity == EXTRAPOLATED

    def test_interpolation_midpoint(self):
        est = estimate_latency(297, 27, "pipeline-inner", 100)
        assert est.latency_cycles == 56 * 297 + 250
        assert est.validity == INTERPOLATED

    def test_extrapolation_clamps_at_zero(self):
        est = estimate_latency(1, 27, "partition-block-2", 100)
        assert est.latency_cycles == 0 and est.throughput_cycles == 1
        assert est.validity == EXTRAPOLATED

    def test_directives_without_fl_terms_refuse_other_fl(self):
        with pytest.raises(FlMismatch):
            estimate_latency(248, 30, "unroll-most", 100)

    def test_single_anchor_refuses_other_s(self):
        with pytest.raises(UnknownCalibration, match="single anchor"):
            estimate_latency(100, 27, "unroll-most", 250)

    def test_single_anchor_reuse_when_forced(self):
        est = estimate_latency(100, 27, "unroll-most", 250, allow_point_reuse=True)
        assert est.latency_cycles == 2653 and est.validity == EXTRAPOLATED

    def test_unknown_directive_regime_pairs(self):
        with pytest.raises(UnknownCalibration):
            estimate_latency(248, 27, "unroll-partial-4", 100)
        with pytest.raises(UnknownCalibration):
            estimate_latency(248, 27, "pipeline-inner", 333)
        with pytest.raises(UnknownCalibration):
            estimate_latency(346, 27, "resource-bram", 250)

    @given(st.integers(1, 500))
    @settings(max_examples=60, deadline=None)
    def test_throughput_is_latency_plus_one(self, s):
        est = estimate_latency(s, 27, "pipeline-most", 100)
        assert est.throughput_cycles == est.latency_cycles + 1

    def test_latency_nondecreasing_in_sv_count(self):
        cal = default_calibration()
        sizes = list(range(1, 401, 7)) + [400]
        for token in cal.directives_for(100.0):
            if len(cal.latency[(token, 100.0)].anchors) < 2:
                continue  # single-anchor entries refuse other sizes
            lats = [
                estimate_latency(s, 27, token, 100, calibration=cal).latency_cycles
                for s in sizes
            ]
            assert lats == sorted(lats), token

    def test_fractional_slope_anchors_within_a_tenth_percent(self):
        # the cyclic-8 anchors do not sit on an integer-slope line; the
        # fitted line must still land within 0.1% at both (here: exactly)
        for s, cycles in ((248, 13827), (346, 19215)):
            est = estimate_latency(s, 27, "partition-cyclic-8", 100)
            assert abs(est.latency_cycles - cycles) <= 0.001 * cycles
            assert est.latency_cycles == cycles


class TestResourceEstimates:
    @pytest.mark.parametrize("row", SHIPPED_ANCHORS, ids=lambda r: f"{r.directive}@{r.regime_mhz:g}/S{r.sv_count}")
    def test_every_anchor_reproduces_exactly(self, row):
        est = estimate_resources(row.sv_count, row.feature_count, row.directive, row.regime_mhz)
        assert (est.bram, est.dsp, est.ff, est.lut) == (row.bram, row.dsp, row.ff, row.lut)
        assert est.validity == ANCHOR_EXACT

    def test_midpoint_interpolation(self):
        est = estimate_resources(297, 27, "pipeline-inner", 100)
        assert est.bram == 27.0  # halfway between the 19 and 35 anchors
        assert est.dsp == 5
        assert est.ff == 1254  # 1254.5 rounds to even
        assert est.lut == 2471
        assert est.validity == INTERPOLATED

    def test_dsp_constant_across_s(self):
        for s in (50, 248, 300, 346, 400):
            assert estimate_resources(s, 27, "unroll-inner", 100).dsp == 135

    def test_no_feature_count_generalization(self):
        with pytest.raises(FlMismatch):
            estimate_resources(248, 30, "interface-only", 100)

    def test_single_anchor_behavior(self):
        with pytest.raises(UnknownCalibration):
            estimate_resources(100, 27, "pipeline-all", 250)
        est = estimate_resources(100, 27, "pipeline-all", 250, allow_point_reuse=True)
        assert (est.bram, est.dsp) == (30.0, 105) and est.validity == EXTRAPOLATED

    def test_extrapolation_never_goes_negative(self):
        est = estimate_resources(1, 27, "partition-cyclic-8", 100)
        assert est.bram >= 0 and est.ff >= 0 and est.lut >= 0

    def test_combined_design_estimate(self):
        est = estimate_design(248, 27, "pipeline-inner", 100)
        assert (est.latency_cycles, est.throughput_cycles) == (14138, 14139)
        assert (est.bram, est.dsp, est.ff, est.lut) == (19.0, 5, 1251, 2477)
        assert est.validity == ANCHOR_EXACT


class TestArmCycles:
    def test_measured_points_reproduce(self):
        assert estimate_arm_cycles(61, 27, (250, 250)) == 77367
        assert estimate_arm_cycles(61, 27, (250, 250), optimized=True) == 22398
        assert estimate_arm_cycles(61, 27, (250, 666.67)) == 28968
        assert estimate_arm_cycles(61, 27, (250, 666.67), optimized=True) == 8431
        assert estimate_arm_cycles(61, 27, (100, 666.67)) == 77367
        assert estimate_arm_cycles(248, 27, (100, 666.67)) == 309378
        assert estimate_arm_cycles(248, 27, (100, 666.67), optimized=True) == 90585

    def test_affine_extrapolation_to_large_model(self):
        # 77367 + (346-61) * (309378-77367)/187, rounded
        assert estimate_arm_cycles(346, 27, (100, 666.67)) == 430967
        assert estimate_arm_cycles(346, 27, (100, 666.67), optimized=True) == 126319

    def test_single_point_pairings_refuse_other_s(self):
        with pytest.raises(UnknownCalibration):
            estimate_arm_cycles(100, 27, (250, 250))
        assert (
            estimate_arm_cycles(100, 27, (250, 250), allow_point_reuse=True) == 77367
        )

    def test_feature_count_locked(self):
        with pytest.raises(FlMismatch):
            estimate_arm_cycles(61, 13, (250, 250))

    def test_unknown_pairing(self):
        with pytest.raises(UnknownCalibration):
            estimate_arm_cycles(61, 27, (250, 500))


class TestPower:
    @pytest.mark.parametrize(
        "model,design,watts",
        [
            ("model1", 1, 1.756),
            ("model1", 2, 1.824),
            ("model1", 3, 1.851),
            ("model2", 1, 1.758),
            ("model2", 2, 2.125),
            ("model2", 3, 1.842),
            ("modelS", 1, 1.686),
            ("modelS", 2, 1.766),
        ],
    )
    def test_lookup_is_exact(self, model, design, watts):
        assert estimate_power(model, design) == watts

    def test_id_spellings(self):
        assert estimate_power(1, 1) == 1.756
        assert estimate_power("model 2", 2) == 2.125
        assert estimate_power("S", 1) == 1.686

    def test_unknown_design(self):
        with pytest.raises(UnknownDesign):
            estimate_power("model1", 4)
        with pytest.raises(UnknownDesign):
            estimate_power("modelS", 3)
        with pytest.raises(UnknownDesign):
            estimate_power("nonsense", 1)


def brute_force_front(sv_count, feature_count, regime):
    """Independent exhaustive non-domination check over all directives."""
    cal = default_calibration()
    ests = {}
    for token in cal.directives_for(regime):
        try:
            ests[token] = estimate_design(sv_count, feature_count, token, regime)
        except (UnknownCalibration, FlMismatch):
            continue

    def cost(e):
        return (e.latency_cycles, e.dsp, e.lut, e.ff, e.bram)

    front = set()
    for a, ea in ests.items():
        beaten = any(
            b != a
            and all(x <= y for x, y in zip(cost(eb), cost(ea)))
            and any(x < y for x, y in zip(cost(eb), cost(ea)))
            for b, eb in ests.items()
        )
        if not beaten:
            front.add(a)
    return front


class TestExplore:
    def test_three_candidate_subset_all_survive(self):
        front = explore(
            248, 27, 100, directives=["interface-only", "pipeline-inner", "unroll-inner"]
        )
        assert [e.directive.name for e in front] == [
            "unroll-inner",
            "pipeline-inner",
            "interface-only",
        ]

    def test_single_candidate_comes_back_alone(self):
        front = explore(248, 27, 100, directives=["pipeline-most"])
        assert len(front) == 1 and front[0].directive.name == "pipeline-most"

    @pytest.mark.parametrize("s,regime", [(248, 100), (346, 100), (61, 250)])
    def test_matches_brute_force(self, s, regime):
        got = [e.directive.name for e in explore(s, 27, regime)]
        assert set(got) == brute_force_front(s, 27, regime)
        assert len(set(got)) == len(got)

    def test_sorted_by_latency(self):
        lats = [e.estimate.latency_cycles for e in explore(248, 27, 100)]
        assert lats == sorted(lats)

    def test_fastest_and_cheapest_survive(self):
        front = {e.directive.name: e for e in explore(248, 27, 100)}
        assert front["unroll-most"].estimate.latency_cycles == 8366
        assert "interface-only" in front

    def test_single_anchor_directives_drop_out_at_other_s(self):
        names = {e.directive.name for e in explore(346, 27, 100)}
        assert not names & {"resource-bram", "resource-lut", "unroll-partial-2"}

    def test_power_attached_for_implemented_designs(self):
        front = {e.directive.name: e.power_w for e in explore(248, 27, 100)}
        assert front["pipeline-inner"] == 1.756
        assert front["unroll-most"] == 1.824
        assert front["partition-cyclic-16"] == 1.851
        front61 = {e.directive.name: e.power_w for e in explore(61, 27, 250)}
        assert front61["pipeline-inner"] == 1.686
        assert front61["unroll-most"] == 1.766
        assert front61["interface-only"] is None

    def test_empty_candidate_space_raises(self):
        with pytest.raises(UnknownCalibration):
            explore(248, 27, 400)
        with pytest.raises(UnknownCalibration):
            explore(248, 30, 100)  # no resource model generalizes across Fl


class TestCalibrationPersistence:
    def test_save_load_round_trip_is_byte_stable(self):
        cal = default_calibration()
        text = save_calibration(cal)
        again = save_calibration(load_calibration(text))
        assert text == again

    def test_loaded_calibration_estimates_identically(self):
        cal = load_calibration(save_calibration(default_calibration()))
        est = estimate_design(248, 27, "pipeline-inner", 100, calibration=cal)
        assert est.latency_cycles == 14138 and est.validity == ANCHOR_EXACT
        assert estimate_arm_cycles(346, 27, (100, 666.67), calibration=cal) == 430967
        assert estimate_power("model2", 2, calibration=cal) == 2.125

    def test_rejects_garbage(self):
        from svmsoc import CalibrationError

        with pytest.raises(CalibrationError):
            load_calibration("not json")
        with pytest.raises(CalibrationError):
            load_calibration("{}")
        with pytest.raises(CalibrationError):
            load_calibration('{"version": 1, "latency": {"x": {}}}')

    @pytest.mark.parametrize("section", ["latency", "resources", "arm", "power"])
    def test_rejects_non_object_section(self, section):
        with pytest.raises(CalibrationError, match="must be a JSON object"):
            load_calibration(json.dumps({"version": 1, section: [1]}))

    @pytest.mark.parametrize(
        "section, anchors",
        [("latency", [1]), ("resources", [1]), ("resources", {"61": [1.0]})],
    )
    def test_rejects_malformed_anchor_map(self, section, anchors):
        doc = json.loads(save_calibration(default_calibration()))
        next(iter(doc[section].values()))["anchors"] = anchors
        with pytest.raises(CalibrationError):
            load_calibration(json.dumps(doc))

    def test_rejects_affine_fit_without_anchors_at_load_time(self):
        doc = json.loads(save_calibration(default_calibration()))
        doc["latency"]["pipeline-inner@100"]["fit"]["anchors"] = []
        with pytest.raises(CalibrationError, match="affine fit has no anchors"):
            load_calibration(json.dumps(doc))


class TestAnchorCsv:
    def test_csv_round_trip_preserves_anchors(self):
        header = "sv_count,feature_count,directive,regime_mhz,latency_cycles,bram,dsp,ff,lut"
        lines = [header] + [
            f"{r.sv_count},{r.feature_count},{r.directive},{r.regime_mhz:g},"
            f"{r.latency_cycles},{r.bram:g},{r.dsp},{r.ff},{r.lut}"
            for r in SHIPPED_ANCHORS
        ]
        rows = parse_anchor_csv("\n".join(lines) + "\n")
        cal = fit_calibration(rows)
        for r in SHIPPED_ANCHORS:
            est = estimate_latency(
                r.sv_count, r.feature_count, r.directive, r.regime_mhz, calibration=cal
            )
            assert est.latency_cycles == r.latency_cycles

    def test_header_optional_and_comments_skipped(self):
        text = "# comment\n248,27,pipeline-inner,100,14138,19,5,1251,2477\n"
        rows = parse_anchor_csv(text)
        assert rows[0].latency_cycles == 14138

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "1,2,3\n",
            "248,27,pipeline-inner,100,xx,19,5,1251,2477\n",
            "248,27,not-a-directive,100,14138,19,5,1251,2477\n",
        ],
    )
    def test_malformed_csv_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_anchor_csv(bad)


def test_stream_word_count_formula():
    assert stream_word_count(61, 27) == 61 * 27 + 1 + 61 + 27 == 1736
    assert stream_word_count(1, 1) == 4
