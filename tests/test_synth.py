import dataclasses
import hashlib
import itertools
import json
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svmsoc import (
    ANCHOR_EXACT,
    EXTRAPOLATED,
    INTERPOLATED,
    AnchorRow,
    CalibrationError,
    ClockPair,
    DirectiveConfig,
    FlMismatch,
    SvmSocError,
    UnknownCalibration,
    UnknownDesign,
    cosim,
    default_calibration,
    estimate_arm_cycles,
    estimate_design,
    estimate_latency,
    estimate_power,
    explore,
    fit_calibration,
    load_calibration,
    make_synthetic,
    parse_anchor_csv,
    save_calibration,
    synth,
)
from svmsoc.synth import (
    MAX_COUNT,
    PER_FEATURE_SLOPES,
    SHIPPED_ANCHORS,
    SHIPPED_RECORDS,
    ArmRecord,
    CalibrationSet,
    CosimRecord,
    ExploreEntry,
    PowerRecord,
    SynthesisEstimate,
    _DIRECTIVES,
    _parse_directive,
)

import ref_calibration_set
import ref_estimates
import ref_load_calibration

CSV_HEADER = "sv_count,feature_count,directive,regime_mhz,latency_cycles,bram,dsp,ff,lut"
KINDS = {ArmRecord: "arm", CosimRecord: "cosim", PowerRecord: "power"}


def csv_line(record) -> str:
    """A record as an anchor CSV line: synth rows bare, other kinds after their kind cell."""
    kind = [KINDS[type(record)]] if type(record) in KINDS else []
    return ",".join(kind + [str(cell) for cell in record])


ANCHOR_LINES = [csv_line(r) for r in SHIPPED_RECORDS] + [CSV_HEADER, "# comment", ""]
ANCHOR_CELLS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1", "0", "", "x", "cyclic-1", "1.5"]),
    st.text(max_size=5),
)


# Anchor CSV lines built cell by cell: mostly a kind cell and that kind's
# columns, each a cell of the column's type; sometimes one faulty cell, a
# column too few or too many, a blank, a comment, a header, cells of any kind
# or short random text.
CSV_COUNTS = st.one_of(
    st.sampled_from(["1", "2", "61", "248", "346", str(MAX_COUNT)]), st.integers(0, 10**6).map(str)
)
CSV_COLUMN_CELLS = {
    "count": CSV_COUNTS,
    "fl": st.sampled_from(["27", "27", "27", "30"]),
    "clock": st.sampled_from(["100", "250", "250.0", "666.67", "666.666"]),
    "directive": st.sampled_from(
        [d for d, takes_factor in _DIRECTIVES.items() if not takes_factor]
        + ["pipeline_inner", "Cyclic_8", "unroll-partial-4"]
    ),
    "amount": st.sampled_from(["0", "1.5", "19", "1e308"]),
    "model": st.sampled_from(["model1", "m2", "S", "Model 2", "x" * 60]),
}
CSV_FAULTY = st.sampled_from([
    "", "0", "-1", "1.5", "1e400", "nan", "inf", str(MAX_COUNT + 1), "unroll-partial-1",
    "partition-cyclic-" + "9" * 30, "what", "#", "synth", "power",
])
CSV_ANY = st.one_of(*CSV_COLUMN_CELLS.values(), CSV_FAULTY, st.text(max_size=6))
CSV_COLUMNS = {
    "synth": ["count", "fl", "directive", "clock", "count", "amount", "count", "count", "count"],
    "arm": ["count", "fl", "clock", "clock", "clock", "count", "count"],
    "cosim": ["count", "fl", "directive", "clock", "clock", "count"],
    "power": ["count", "directive", "model", "count", "amount"],
}


@st.composite
def csv_lines(draw):
    pick = draw(st.integers(0, 19))
    if pick == 0:
        return draw(st.text(max_size=12))
    if pick == 1:
        return ",".join(draw(st.lists(CSV_ANY, max_size=10)))
    if pick < 4:
        return draw(st.sampled_from(["", "  ", "# comment", "#", CSV_HEADER]))
    kind = draw(st.sampled_from(sorted(CSV_COLUMNS)))
    cells = [draw(CSV_COLUMN_CELLS[column]) for column in CSV_COLUMNS[kind]]
    if pick == 4:
        cells[draw(st.integers(0, len(cells) - 1))] = draw(CSV_FAULTY)
    elif pick == 5:
        cells = cells[:-1] if draw(st.booleans()) else cells + [draw(CSV_ANY)]
    bare = kind == "synth" and draw(st.booleans())
    return ",".join(cells if bare else [kind] + cells)


def _replace_cell(line: str, index: int, cell: str) -> str:
    cells = line.split(",")
    cells[index % len(cells)] = cell
    return ",".join(cells)

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


# The shipped anchors plus a third pipeline-inner run at 100 MHz: one group
# each of one anchor, two anchors and a least-squares line.
FITTED = fit_calibration(
    [*SHIPPED_ANCHORS, AnchorRow(400, 27, "pipeline-inner", 100.0, 22800, 40, 5, 1262, 2460)]
)


def _no_fault(records):
    raise AssertionError("a set that builds ran the fault walk")


class TestDirectiveConfig:
    @pytest.mark.parametrize(
        "token,prefix,factor",
        [
            ("interface-only", "interface-only", None),
            ("resource-bram", "resource-bram", None),
            ("pipeline-inner", "pipeline-inner", None),
            ("unroll-most", "unroll-most", None),
            ("unroll-partial-2", "unroll-partial", 2),
            ("partition-cyclic-16", "partition-cyclic", 16),
            ("partition-block-2", "partition-block", 2),
            ("partition-complete", "partition-complete", None),
        ],
    )
    def test_parse_and_name_round_trip(self, token, prefix, factor):
        cfg = DirectiveConfig.parse(token)
        assert (cfg.prefix, cfg.factor) == (prefix, factor)
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

    def test_name_joins_prefix_and_factor(self):
        assert DirectiveConfig("unroll-partial", 4).name == "unroll-partial-4"
        assert DirectiveConfig("pipeline-inner").name == "pipeline-inner"

    @pytest.mark.parametrize(
        "prefix, factor, message",
        [
            ("pipeline-inner", 4, "pipeline-inner takes no factor"),
            ("unroll-partial", None, "unroll-partial needs a factor >= 2"),
            ("unroll-partial", 1, "unroll-partial needs a factor >= 2"),
            ("partition-complete", 2, "partition-complete takes no factor"),
            ("bogus", None, "unknown directive 'bogus'"),
        ],
    )
    def test_factor_rules(self, prefix, factor, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DirectiveConfig(prefix, factor)

    def test_factor_is_bounded_like_every_count(self):
        assert DirectiveConfig("unroll-partial", MAX_COUNT).factor == MAX_COUNT
        message = "unroll-partial needs a factor of at most 2**53"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DirectiveConfig("unroll-partial", MAX_COUNT + 1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DirectiveConfig.parse("unroll-partial-" + "9" * 4000)

    def test_a_float_factor_is_refused(self):
        # it would name unroll-partial-2.5, which parse refuses
        message = r"^unroll-partial needs an integer factor, got 2\.5$"
        with pytest.raises(ValueError, match=message):
            DirectiveConfig("unroll-partial", 2.5)

    def test_a_string_factor_is_refused(self):
        with pytest.raises(ValueError, match=r"^unroll-partial needs an integer factor, got '4'$"):
            DirectiveConfig("unroll-partial", "4")

    def test_every_name_parses_as_its_normalised_spelling(self):
        for name in DIRECTIVE_NAMES:
            for upper, underscore, spaces, array in itertools.product((False, True), repeat=4):
                token = "array-" + name if array else name
                token = token.replace("-", "_") if underscore else token
                token = token.upper() if upper else token
                token = f"  {token} " if spaces else token
                assert _parse_outcome(DirectiveConfig.parse, token) == _parse_outcome(
                    _parse_by_normalising, token
                ), token

    @pytest.mark.parametrize(
        "token",
        [
            "partition-cyclic-02", "partition-cyclic-1", "partition-cyclic-0",
            "partition-cyclic-+2", "partition-cyclic- 2", "partition-cyclic-\u0661\u0666",
            "partition-cyclic-\u00b2", "unroll-partial-" + "9" * 40,
            "unroll-partial-" + "9" * 5000, "pipeline-inner-2", "cyclic-16",
        ],
    )
    def test_factor_spellings_parse_as_normalised(self, token):
        assert _parse_outcome(DirectiveConfig.parse, token) == _parse_outcome(
            _parse_by_normalising, token
        )

    def test_parse_cache_is_bounded_and_keyed_on_text(self):
        assert _parse_directive.cache_info().maxsize is not None
        assert DirectiveConfig.parse("Cyclic_8") is DirectiveConfig.parse("Cyclic_8")

    @given(
        st.one_of(
            st.text(max_size=24),
            st.tuples(st.sampled_from(sorted(_DIRECTIVES)), st.text(max_size=4)).map("-".join),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_parse_matches_normalising_on_any_text(self, token):
        assert _parse_outcome(DirectiveConfig.parse, token) == _parse_outcome(
            _parse_by_normalising, token
        )


# Every directive prefix bare, and every directive name with factors 2..64.
DIRECTIVE_NAMES = sorted(_DIRECTIVES) + [
    f"{prefix}-{factor}"
    for prefix, takes_factor in _DIRECTIVES.items()
    if takes_factor
    for factor in range(2, 65)
]


def _parse_by_normalising(token: str) -> DirectiveConfig:
    """The parse normalisation spelled out on its own, as a reference.

    A quoted token longer than 40 characters is cut to 40 plus "…", as
    every message does.
    """
    quoted = repr(token if len(token) <= 40 else token[:40] + "…")
    t = token.strip().lower().replace("_", "-")
    if t.startswith(("array-partition-", "array-resource-")):
        t = t[len("array-") :]
    aliases = {
        "interface": "interface-only",
        "interfaces": "interface-only",
        "baseline": "interface-only",
        "complete": "partition-complete",
    }
    t = aliases.get(t, t)
    if t.count("-") == 1 and t.split("-")[0] in ("cyclic", "block"):
        t = "partition-" + t
    if _DIRECTIVES.get(t) is False:
        return DirectiveConfig(t)
    prefix, _, factor = t.rpartition("-")
    if not _DIRECTIVES.get(prefix):
        raise ValueError(f"unknown directive {quoted}")
    try:
        factor = int(factor)
    except ValueError:
        raise ValueError(f"bad factor in directive {quoted}") from None
    return DirectiveConfig(prefix, factor)


def _parse_outcome(parse, token: str):
    """The config a parse returns, or the type and text of the error it raises."""
    try:
        return parse(token)
    except ValueError as exc:
        return type(exc), str(exc)


class TestFitCalibration:
    def test_two_point_fits_solve_exactly(self):
        cal = default_calibration()
        for token, (slope, intercept) in TWO_POINT_LATENCY_FITS.items():
            fit = cal.fits[token, 100.0]
            assert sorted(fit.points) == [248, 346]
            assert fit.slope[0] == pytest.approx(slope, abs=1e-9)
            assert fit.intercept[0] == pytest.approx(intercept, abs=1e-9)

    def test_fractional_slopes_match_hand_solution(self):
        cal = default_calibration()
        for token, frac in FRACTIONAL_LATENCY_SLOPES.items():
            fit = cal.fits[token, 100.0]
            assert fit.slope[0] == pytest.approx(float(frac), abs=1e-12)
        # block partitioning extrapolates to a negative intercept
        assert cal.fits["partition-block-2", 100.0].intercept[0] < 0

    def test_per_feature_decomposition_applies_where_it_fits(self):
        cal = default_calibration()
        assert cal.fits["interface-only", 100.0].slope[0] == 11 * 28 + 23
        assert cal.fits["pipeline-inner", 100.0].slope[0] == 2 * 28 + 0
        assert estimate_latency(248, 30, "interface-only", 100).validity == EXTRAPOLATED
        assert estimate_latency(248, 30, "pipeline-inner", 100).validity == EXTRAPOLATED
        with pytest.raises(FlMismatch):
            estimate_latency(248, 30, "unroll-most", 100)
        # single-anchor entries cannot confirm a slope
        with pytest.raises(FlMismatch):
            estimate_latency(61, 30, "pipeline-inner", 250)

    def test_single_rows_become_point_fits(self):
        cal = default_calibration()
        fit = cal.fits["unroll-most", 250.0]
        assert {s: values[0] for s, values in fit.points.items()} == {61: 2653}
        assert fit.slope is None and fit.intercept is None

    def test_three_collinear_rows_recover_the_line(self):
        rows = [
            (100, 27, "pipeline-inner", 100.0, 56 * 100 + 250, 1, 1, 1, 1),
            (200, 27, "pipeline-inner", 100.0, 56 * 200 + 250, 1, 1, 1, 1),
            (300, 27, "pipeline-inner", 100.0, 56 * 300 + 250, 1, 1, 1, 1),
        ]
        fit = fit_calibration(rows).fits["pipeline-inner", 100.0]
        assert fit.slope[0] == pytest.approx(56) and fit.intercept[0] == pytest.approx(250)

    @pytest.mark.parametrize(
        "brams",
        [(0.0, 1.7e308), (1e308, 1.7e308, 1e308)],
        ids=["two-points", "least-squares"],
    )
    def test_fit_that_is_not_finite_is_refused(self, brams):
        rows = [
            (248 + 98 * i, 27, "pipeline-inner", 100.0, 5850, bram, 1, 1, 1)
            for i, bram in enumerate(brams)
        ]
        with pytest.raises(ValueError, match="bram for pipeline-inner at 100 MHz"):
            fit_calibration(rows)

    def test_ill_conditioned_least_squares_is_refused(self):
        rows = [
            (s, 27, "pipeline-inner", 100.0, 5850, 1, 1, 1, 1)
            for s in (MAX_COUNT - 2, MAX_COUNT - 1, MAX_COUNT)
        ]
        # the refusal must not depend on the caller's warning filters
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="no least-squares line"):
                fit_calibration(rows)

    def test_duplicate_identical_rows_are_deduped(self):
        rows = list(SHIPPED_RECORDS) + [SHIPPED_ANCHORS[0], SHIPPED_RECORDS[-1]]
        cal = fit_calibration(rows)
        assert cal.records == default_calibration().records
        assert cal.fits["interface-only", 100.0].points[248][0] == 82460

    def test_one_fit_per_group(self):
        cal = default_calibration()
        assert len(cal.fits) == 23  # 20 (directive, regime) groups and 3 clock pairings
        assert cal.fits.keys() == cal.dsp.keys() | cal.arm.keys()

    def test_each_regime_lists_its_designs(self):
        cal = default_calibration()
        rows = [(token, regime, *rest)
                for regime, table in cal.regimes.items() for token, *rest in table]
        assert [(token, regime) for token, regime, *_ in rows] == list(cal.dsp)
        for token, regime, config, fit, dsp in rows:
            assert config == DirectiveConfig.parse(token) and config.name == token
            assert fit is cal.fits[token, regime] and dsp is cal.dsp[token, regime]

    def test_shipped_records_take_the_column_check(self, monkeypatch):
        monkeypatch.setattr(synth, "_fault", _no_fault)
        cal = fit_calibration(SHIPPED_RECORDS)
        assert cal.records == SHIPPED_RECORDS
        loaded = load_calibration(save_calibration(cal))
        assert loaded == cal
        assert fit_calibration(SHIPPED_ANCHORS).records == SHIPPED_ANCHORS
        # every column stands whole: none is checked cell by cell
        for records in (SHIPPED_RECORDS, loaded.records, SHIPPED_ANCHORS):
            for row_type, kind in synth._KIND.items():
                rows = [r for r in records if type(r) is row_type]
                checks = synth._SCHEMA[kind][1]
                for check, column in zip(checks, zip(*rows)):
                    assert synth._WHOLE[check](column), (kind, check.__name__)

    @pytest.mark.parametrize("table", [SHIPPED_RECORDS, FITTED.records], ids=["shipped", "fitted"])
    def test_each_column_holds_its_per_column_fit(self, table):
        """Every column of a group's Fit is, bit for bit, the Fit of that column alone."""
        cal, reference = fit_calibration(table), ref_estimates.Calibration(table)
        assert len(reference.fits) == 4 * len(cal.dsp) + 2 * len(cal.arm)
        for (column, *group), ref in reference.fits.items():
            fit = cal.fits[tuple(group)]
            i = fit.columns.index(column)
            assert fit.what(i) == ref.what
            assert fit.feature_count == ref.feature_count
            assert {s: values[i] for s, values in fit.points.items()} == ref.points
            if ref.slope is None:
                assert fit.slope is fit.intercept is None
            else:
                assert (fit.slope[i].hex(), fit.intercept[i].hex()) == (
                    ref.slope.hex(), ref.intercept.hex()
                )

    @pytest.mark.parametrize(
        "clash",
        [
            SHIPPED_ANCHORS[0]._replace(latency_cycles=1),
            ArmRecord(61, 27, 250.0, 250.0, 250.0, 77367, 1),
            ArmRecord(61, 27, 250.0, 250.0, 100.0, 77367, 22398),
            CosimRecord(61, 27, "pipeline-inner", 250.0, 250.0, 1),
            PowerRecord(61, "pipeline-inner", "models", 3, 1.686),
            PowerRecord(100, "pipeline-inner", "models", 1, 1.686),
        ],
        ids=["synth", "arm-cycles", "arm-timer", "cosim", "power-design", "power-s"],
    )
    def test_conflicting_duplicate_rows_rejected(self, clash):
        with pytest.raises(ValueError, match="conflicting"):
            fit_calibration(list(SHIPPED_RECORDS) + [clash])

    @pytest.mark.parametrize(
        "second, message",
        [
            ("power,61,unroll-most,{},2,1.8",
             "conflicting power records (61, 'unroll-most', {!r}, 2, 1.7)"
             " and (61, 'unroll-most', {!r}, 2, 1.8)"),
            ("power,62,unroll-most,{},2,1.7", "conflicting power records for ({!r}, 2)"),
        ],
        ids=["same-key", "same-design"],
    )
    def test_conflicting_records_quote_text_cells_cut(self, second, message):
        model_id = "m" * 300
        rows = parse_anchor_csv(f"power,61,unroll-most,{model_id},2,1.7\n"
                                + second.format(model_id))
        quoted = "m" * 40 + "…"
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(quoted, quoted))}$"):
            fit_calibration(rows)

    @pytest.mark.parametrize(
        "rows, what",
        [
            ([(100, 27, "pipeline-inner", 100.0, 5850, 1, 1, 1, 1),
              (200, 28, "pipeline-inner", 100.0, 11450, 1, 1, 1, 1)], "feature_count"),
            ([ArmRecord(61, 27, 250.0, 250.0, 250.0, 1, 1),
              ArmRecord(100, 27, 250.0, 250.0, 100.0, 2, 2)], "timer_mhz"),
        ],
        ids=["synth-fl", "arm-timer"],
    )
    def test_mixed_group_columns_rejected(self, rows, what):
        with pytest.raises(ValueError, match=f"mix {what}"):
            fit_calibration(rows)


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

    def test_unknown_directive_regime_pairs(self):
        with pytest.raises(UnknownCalibration):
            estimate_latency(248, 27, "unroll-partial-4", 100)
        with pytest.raises(UnknownCalibration):
            estimate_latency(248, 27, "pipeline-inner", 333)
        with pytest.raises(UnknownCalibration):
            estimate_latency(346, 27, "resource-bram", 250)

    def test_throughput_derives_from_latency(self):
        assert SynthesisEstimate(ANCHOR_EXACT, latency_cycles=14138).throughput_cycles == 14139
        assert SynthesisEstimate(ANCHOR_EXACT, bram=19.0).throughput_cycles is None

    @given(st.integers(1, 500))
    @settings(max_examples=60, deadline=None)
    def test_throughput_is_latency_plus_one(self, s):
        est = estimate_latency(s, 27, "pipeline-most", 100)
        assert est.throughput_cycles == est.latency_cycles + 1

    def test_latency_nondecreasing_in_sv_count(self):
        cal = default_calibration()
        sizes = list(range(1, 401, 7)) + [400]
        for token in (d for d, mhz in cal.dsp if mhz == 100.0):
            if len(cal.fits[token, 100.0].points) < 2:
                continue  # single-anchor entries refuse other sizes
            lats = [
                estimate_latency(s, 27, token, 100, calibration=cal).latency_cycles
                for s in sizes
            ]
            assert lats == sorted(lats), token

    def test_sizes_beyond_max_count_are_refused(self):
        for s, fl in ((MAX_COUNT + 1, 27), (248, 10**400)):
            with pytest.raises(ValueError, match="1..2"):
                estimate_design(s, fl, "interface-only", 100)
            with pytest.raises(ValueError, match="1..2"):
                estimate_arm_cycles(s, fl, (100, 666.67))
        assert estimate_latency(MAX_COUNT, 27, "pipeline-inner", 100).validity == EXTRAPOLATED

    @pytest.mark.parametrize(
        "s, fl",
        [(1.5, 27), (248.0, 27), (True, 27), ("200", 27), (None, 27), (248, 27.0),
         (248, np.True_), (np.float64(248), 27)],
        ids=["real", "whole-real", "bool", "text", "null", "real-fl", "numpy-bool", "numpy-real"],
    )
    def test_sizes_that_are_not_integers_are_refused(self, s, fl):
        message = "^sv_count and feature_count must be integers in 1\\.\\.2\\*\\*53$"
        calls = [
            lambda: explore(s, fl, 100),
            lambda: estimate_design(s, fl, "pipeline-inner", 100),
            lambda: estimate_latency(s, fl, "pipeline-inner", 100),
            lambda: estimate_arm_cycles(s, fl, (100, 666.67)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()
        # an uncalibrated regime or group is refused first
        with pytest.raises(UnknownCalibration, match="^no directive calibrated at 123 MHz"):
            explore(s, fl, 123)
        with pytest.raises(UnknownCalibration, match="^latency for pipeline-inner at 123 MHz"):
            estimate_design(s, fl, "pipeline-inner", 123)

    def test_numpy_integer_sizes_are_integers(self):
        s, fl = np.int64(248), np.int32(27)
        assert explore(s, fl, 100) == explore(248, 27, 100)
        assert estimate_design(s, fl, "pipeline-inner", 100) == (
            estimate_design(248, 27, "pipeline-inner", 100)
        )
        assert estimate_arm_cycles(s, fl, (100, 666.67)) == 309378

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
        est = estimate_design(row.sv_count, row.feature_count, row.directive, row.regime_mhz)
        assert (est.bram, est.dsp, est.ff, est.lut) == (row.bram, row.dsp, row.ff, row.lut)
        assert est.validity == ANCHOR_EXACT

    def test_midpoint_interpolation(self):
        est = estimate_design(297, 27, "pipeline-inner", 100)
        assert est.bram == 27.0  # halfway between the 19 and 35 anchors
        assert est.dsp == 5
        assert est.ff == 1254  # 1254.5 rounds to even
        assert est.lut == 2471
        assert est.validity == INTERPOLATED

    def test_dsp_constant_across_s(self):
        for s in (50, 248, 300, 346, 400):
            assert estimate_design(s, 27, "unroll-inner", 100).dsp == 135

    def test_no_feature_count_generalization(self):
        with pytest.raises(FlMismatch):
            estimate_design(248, 30, "interface-only", 100)

    def test_single_anchor_behavior(self):
        with pytest.raises(UnknownCalibration):
            estimate_design(100, 27, "pipeline-all", 250)

    def test_extrapolation_never_goes_negative(self):
        est = estimate_design(1, 27, "partition-cyclic-8", 100)
        assert est.bram >= 0 and est.ff >= 0 and est.lut >= 0

    def test_combined_design_estimate(self):
        est = estimate_design(248, 27, "pipeline-inner", 100)
        assert (est.latency_cycles, est.throughput_cycles) == (14138, 14139)
        assert (est.bram, est.dsp, est.ff, est.lut) == (19.0, 5, 1251, 2477)
        assert est.validity == ANCHOR_EXACT


REFUSALS = [
    # (estimator call, exception type, the label of the figure it refuses)
    (lambda: estimate_latency(248, 27, "pipeline-inner", 333), UnknownCalibration,
     "latency for pipeline-inner at 333 MHz"),
    (lambda: estimate_latency(248, 30, "unroll-most", 100), FlMismatch,
     "latency for unroll-most at 100 MHz"),
    (lambda: estimate_latency(100, 27, "unroll-most", 250), UnknownCalibration,
     "latency for unroll-most at 250 MHz"),
    (lambda: estimate_design(248, 27, "unroll-partial-4", 100), UnknownCalibration,
     "latency for unroll-partial-4 at 100 MHz"),
    (lambda: estimate_design(248, 30, "interface-only", 100), FlMismatch,
     "bram for interface-only at 100 MHz"),
    (lambda: estimate_design(100, 27, "pipeline-all", 250), UnknownCalibration,
     "latency for pipeline-all at 250 MHz"),
    (lambda: estimate_arm_cycles(61, 27, (250, 500)), UnknownCalibration,
     "plain processor cycles for FPGA 250 MHz / ARM 500 MHz"),
    (lambda: estimate_arm_cycles(61, 13, (250, 250), optimized=True), FlMismatch,
     "optimized processor cycles for FPGA 250 MHz / ARM 250 MHz"),
    (lambda: estimate_arm_cycles(100, 27, (250, 666.67)), UnknownCalibration,
     "plain processor cycles for FPGA 250 MHz / ARM 666.67 MHz"),
    # strict cosim: a measured accelerator anchor, but no processor record at its S
    (lambda: cosim(
        *_model_and_instance(100), "pipeline-inner", ClockPair(100, 666.67), strict=True,
        calibration=fit_calibration(
            SHIPPED_RECORDS + (CosimRecord(100, 27, "pipeline-inner", 100.0, 666.67, 5000),)
        ),
    ), UnknownCalibration,
     "no measured processor cycles at S=100 for FPGA 100 MHz / ARM 666.67 MHz"),
]


def _model_and_instance(sv_count):
    model, dataset = make_synthetic(sv_count, 27, 1, instances=1)
    return model, dataset.instances[0]


@pytest.mark.parametrize(
    "call, error, label",
    REFUSALS,
    ids=[f"{est}-{why}" for est in ("latency", "design", "arm")
         for why in ("missing", "other-fl", "single-anchor")] + ["cosim-strict-no-arm-record"],
)
def test_refusal_names_its_figure(call, error, label):
    with pytest.raises(error, match=re.escape(label)):
        call()


@given(
    st.sampled_from(["shipped", "fitted"]),
    st.integers(1, MAX_COUNT),
    st.sampled_from([27, 30]),
)
@example("fitted", 300, 27)
@example("shipped", 297, 27)
@example("shipped", 100, 27)
@example("shipped", MAX_COUNT, 27)
@settings(max_examples=200, deadline=None)
def test_figures_of_a_design_share_their_validity(which, s, fl):
    """All four fitted figures of an estimate carry one tag, or the estimate refuses."""
    cal = default_calibration() if which == "shipped" else FITTED
    for design in cal.dsp:
        tags = set()
        try:
            est = estimate_latency(s, fl, *design, calibration=cal)
            tags.add(est.validity)
            fit = cal.fits[design]
            for column in ("bram", "ff", "lut"):
                tags.add(fit.at(s, fl, (fit.columns.index(column),))[1])
        except CalibrationError:
            with pytest.raises(CalibrationError):
                estimate_design(s, fl, *design, calibration=cal)
            continue
        est = estimate_design(s, fl, *design, calibration=cal)
        assert tags == {est.validity}


# Record tables for the differential property: one to three synth groups and
# up to two clock pairings, each with its own Fl and one to four anchors.
# BRAM reaches 1e308, so some lines are not finite and some go non-finite at
# an S; a synth group may put its latency on its per-feature line so that
# another Fl bridges.
REF_DESIGNS = [(d, m) for d in ("interface-only", "pipeline-inner", "unroll-most")
               for m in (100.0, 250.0)]
REF_PAIRINGS = [(100.0, 666.67), (250.0, 250.0)]
REF_SIZES = st.one_of(st.integers(1, 400), st.integers(1, MAX_COUNT))
REF_COUNTS = st.integers(0, MAX_COUNT)
REF_BRAMS = st.one_of(
    st.integers(0, 100).map(float), st.floats(0, 1e308), st.sampled_from([0.0, 1e308])
)


@st.composite
def record_tables(draw):
    records = []
    for directive, regime in draw(st.lists(st.sampled_from(REF_DESIGNS), min_size=1,
                                           max_size=3, unique=True)):
        fl = draw(st.one_of(st.sampled_from([27, 30]), st.integers(1, 64)))
        a, c = PER_FEATURE_SLOPES.get(directive, (1, 0))
        on_line, intercept = draw(st.booleans()), draw(st.integers(0, 1000))
        for s in draw(st.lists(REF_SIZES, min_size=1, max_size=4, unique=True)):
            latency = (a * (fl + 1) + c) * s + intercept
            if not on_line or latency > MAX_COUNT:
                latency = draw(REF_COUNTS)
            records.append(AnchorRow(s, fl, directive, regime, latency, draw(REF_BRAMS),
                                     draw(st.integers(0, 200)), draw(REF_COUNTS),
                                     draw(REF_COUNTS)))
        if regime == 100.0 and draw(st.booleans()):  # one (S, directive) power key at most
            records.append(PowerRecord(s, directive, "model1", len(records), 1.5))
    for fpga, arm in draw(st.lists(st.sampled_from(REF_PAIRINGS), max_size=2, unique=True)):
        fl = draw(st.sampled_from([27, 30]))
        for s in draw(st.lists(REF_SIZES, min_size=1, max_size=4, unique=True)):
            records.append(ArmRecord(s, fl, fpga, arm, arm, draw(REF_COUNTS), draw(REF_COUNTS)))
    return records


# The end of the reference's single-anchor refusal, naming the option it still takes
REF_REUSE_HINT = " (pass allow_point_reuse to reuse the point value)"


def _outcome(call):
    """What a call returns, or the type and text of the error it raises."""
    try:
        return call()
    except SvmSocError as exc:
        return type(exc), str(exc)
    except ValueError as exc:
        return ValueError, str(exc)


# latency on a line of slope 10 and BRAM on one of slope 1e308, for
# pipeline-inner (whose per-feature slope is 56, so it never bridges);
# interface-only's latency on its per-feature line 331*S + 5, so it bridges
# to another Fl; one single-anchor clock pairing
FINITENESS_TABLE = [
    AnchorRow(1, 27, "pipeline-inner", 100.0, 26, 0.0, 1, 1, 1),
    AnchorRow(2, 27, "pipeline-inner", 100.0, 36, 1e308, 1, 1, 1),
    AnchorRow(1, 27, "interface-only", 100.0, 336, 1.0, 1, 1, 1),
    AnchorRow(2, 27, "interface-only", 100.0, 667, 2.0, 1, 1, 1),
    ArmRecord(61, 27, 250.0, 250.0, 250.0, 77367, 22398),
]


# One group per branch of the four-figure evaluation: pipeline-inner on two
# anchors whose latency, BRAM, FF and LUT all fall, so each clamps at 0 by
# S=400; interface-only on a least-squares line through three; unroll-most
# a single anchor.
BRANCH_TABLE = [
    AnchorRow(10, 27, "pipeline-inner", 100.0, 1000, 20.0, 3, 900, 800),
    AnchorRow(20, 27, "pipeline-inner", 100.0, 500, 10.0, 3, 450, 400),
    AnchorRow(61, 27, "interface-only", 100.0, 40885, 5.0, 5, 1656, 2548),
    AnchorRow(248, 27, "interface-only", 100.0, 82460, 17.0, 5, 1265, 2417),
    AnchorRow(346, 27, "interface-only", 100.0, 114898, 33.0, 5, 1271, 2429),
    AnchorRow(61, 27, "unroll-most", 100.0, 2653, 27.0, 135, 19429, 45233),
]


@given(record_tables(), st.one_of(st.integers(0, 500), st.integers(0, MAX_COUNT + 1)),
       st.one_of(st.sampled_from([27, 30]), st.integers(1, 64)))
@example(FINITENESS_TABLE, MAX_COUNT, 27)  # BRAM not finite at S; latency is
@example(FINITENESS_TABLE, 100, 27)
@example(FINITENESS_TABLE, 100, 30)  # another Fl; interface-only's latency bridges
@example(BRANCH_TABLE, 20, 27)  # on an anchor
@example(BRANCH_TABLE, 15, 27)  # between two anchors
@example(BRANCH_TABLE, 5, 27)  # below two anchors
@example(BRANCH_TABLE, 400, 27)  # beyond two anchors, every figure clamped at 0
@example(BRANCH_TABLE, 300, 27)  # on a least-squares line; a single anchor elsewhere
@example(BRANCH_TABLE, 15, 30)  # another Fl
@settings(max_examples=300, deadline=None)
def test_estimates_match_the_per_column_reference(records, s, fl):
    """Every estimator returns what one Fit per column returned, or refuses alike.

    The frozen reference still takes the option the estimators dropped, to
    reuse a single anchor's value at another S; it is called without it, and
    its refusal's hint to pass it is left out of the comparison.
    """
    built = _outcome(lambda: fit_calibration(records))
    reference = _outcome(lambda: ref_estimates.Calibration(records))
    if not isinstance(built, CalibrationSet):
        assert built == reference
        return
    assert isinstance(reference, ref_estimates.Calibration)
    designs = [*built.dsp, ("unroll-partial-4", 100.0)]
    pairings = [*built.arm, (250.0, 500.0)]
    for size in {s, *(r.sv_count for r in records if type(r) is not PowerRecord)}:
        calls = [
            (estimate, (size, fl, *design), {"allow_point_reuse": False})
            for design in designs
            for estimate in ("estimate_latency", "estimate_design")
        ] + [
            ("estimate_arm_cycles", (size, fl, pairing, optimized), {"allow_point_reuse": False})
            for pairing in pairings
            for optimized in (False, True)
        ] + [("explore", (size, fl, mhz), {}) for mhz in (100, 250, 300)]
        for name, args, ref_kwargs in calls:
            got = _outcome(lambda: getattr(synth, name)(*args, calibration=built))
            want = _outcome(
                lambda: getattr(ref_estimates, name)(*args, calibration=reference, **ref_kwargs)
            )
            if isinstance(want, tuple):
                want = (want[0], want[1].removesuffix(REF_REUSE_HINT))
            assert got == want, (name, args)


def test_finiteness_covers_only_the_columns_read():
    cal = fit_calibration(FINITENESS_TABLE)
    assert estimate_latency(MAX_COUNT, 27, "pipeline-inner", 100, calibration=cal) == (
        SynthesisEstimate(EXTRAPOLATED, latency_cycles=90071992547409936)
    )
    message = f"bram for pipeline-inner at 100 MHz is not finite at S={MAX_COUNT}"
    with pytest.raises(CalibrationError, match=f"^{re.escape(message)}$"):
        estimate_design(MAX_COUNT, 27, "pipeline-inner", 100, calibration=cal)
    # a latency bridged to another Fl leaves the design refused for its BRAM
    assert estimate_latency(3, 30, "interface-only", 100, calibration=cal).latency_cycles == (
        (11 * 31 + 23) * 3 + 5
    )
    with pytest.raises(FlMismatch, match="^bram for interface-only at 100 MHz is calibrated"):
        estimate_design(3, 30, "interface-only", 100, calibration=cal)
    with pytest.raises(
        UnknownCalibration, match="^optimized processor cycles for FPGA 250 MHz / ARM 250 MHz"
    ):
        estimate_arm_cycles(100, 27, (250, 250), optimized=True, calibration=cal)


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

    def test_a_falling_line_clamps_at_zero(self):
        falling = (ArmRecord(1, 27, 100.0, 250.0, 50.0, 1000, 10),
                   ArmRecord(2, 27, 100.0, 250.0, 50.0, 10, 1000))
        cal = fit_calibration(SHIPPED_RECORDS + falling)
        # plain: 1000 - 990 * (S - 1), below 0 from S=3; optimized rises
        assert estimate_arm_cycles(2, 27, (100, 250), calibration=cal) == 10
        assert estimate_arm_cycles(3, 27, (100, 250), calibration=cal) == 0
        assert estimate_arm_cycles(3, 27, (100, 250), optimized=True, calibration=cal) == 1990

    def test_single_point_pairings_refuse_other_s(self):
        with pytest.raises(UnknownCalibration):
            estimate_arm_cycles(100, 27, (250, 250))

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

    @pytest.mark.parametrize(
        "cell, shown",
        [([1], "[1]"), (None, "None"), (True, "True"), (1.0, "1.0"), ({"m": 1}, "{'m': 1}"),
         (["m"] * 30, repr(["m"] * 30)[:40] + "…")],
        ids=["list", "null", "bool", "real", "object", "long"],
    )
    def test_model_id_is_text_or_an_integer(self, cell, shown):
        # json gives a list, null, true, 1.0 or an object where a model name or number belongs
        doc = _default_doc()
        doc["power"][0][2] = cell
        with pytest.raises(CalibrationError) as exc:
            load_calibration(json.dumps(doc))
        reason = f"{shown} is not a model name or number"
        assert str(exc.value) == f"calibration file is malformed: power model_id: {reason}"
        with pytest.raises(ValueError, match="is not a model name or number"):
            estimate_power(cell, 1)

    def test_model_id_cells_as_text_and_integers_load(self):
        doc = _default_doc()
        spelt = {"model1": 1, "model2": "Model 2", "models": "m-s"}
        for rec in doc["power"]:
            rec[2] = spelt[rec[2]]
        cal = load_calibration(json.dumps(doc))
        assert cal == default_calibration()
        for _, _, model_id, design, watts in doc["power"]:
            assert estimate_power(model_id, design, calibration=cal) == watts

    @pytest.mark.parametrize("design, shown", [(1.9, "1.9"), (1.0, "1.0"), (True, "True"),
                                               (None, "None")])
    def test_design_id_is_a_count(self, design, shown):
        # a power record's design_id cell refuses each of these; none reads design 1
        with pytest.raises(ValueError, match=f"^{re.escape(shown)} is not an integer$"):
            estimate_power("model1", design)

    def test_design_id_text_is_read_as_a_record_cell(self):
        assert estimate_power("model1", "2") == 1.824
        with pytest.raises(ValueError, match="must be an integer in 1..2"):
            estimate_power("model1", 0)

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
    for token in (d for d, mhz in cal.dsp if mhz == regime):
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


# The explore sweep of the benchmark's explore workload, at both shipped regimes,
# and its digest (TestExplore.test_sweep_digest).
SWEEP = [(mhz, s) for mhz in (100.0, 250.0) for s in range(1, 401)]
SWEEP_DIGEST = "c90569e2d963890afb5ced3a00556e7f8ad398a7265cf90195b4b926b17ae39b"


def subset_calibration(*directives):
    """The calibration fitted from the shipped synthesis runs of these directives."""
    return fit_calibration([r for r in SHIPPED_ANCHORS if r.directive in directives])


class TestExplore:
    def test_three_candidate_subset_all_survive(self):
        cal = subset_calibration("interface-only", "pipeline-inner", "unroll-inner")
        front = explore(248, 27, 100, calibration=cal)
        assert [e.directive.name for e in front] == [
            "unroll-inner",
            "pipeline-inner",
            "interface-only",
        ]

    def test_single_candidate_comes_back_alone(self):
        front = explore(248, 27, 100, calibration=subset_calibration("pipeline-most"))
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

    def test_an_uncalibrated_regime_is_refused_before_a_size(self):
        with pytest.raises(UnknownCalibration, match="^no directive calibrated at 400 MHz"):
            explore(0, 27, 400)
        with pytest.raises(ValueError, match=r"integers in 1\.\.2\*\*53$") as exc:
            explore(0, 27, 100)
        assert exc.type is ValueError

    def test_entries_are_the_dataclasses_their_constructors_make(self):
        for entry in explore(200, 27, 100) + explore(248, 27, 100):
            est = entry.estimate
            fields = [f.name for f in dataclasses.fields(SynthesisEstimate)]
            made = ExploreEntry(entry.directive, SynthesisEstimate(**vars(est)), entry.power_w)
            assert list(vars(est)) == fields
            assert list(vars(entry)) == ["directive", "estimate", "power_w"]
            assert (entry, hash(entry), repr(entry)) == (made, hash(made), repr(made))
            with pytest.raises(dataclasses.FrozenInstanceError):
                est.bram = 0.0

    @pytest.mark.parametrize(
        "make",
        [default_calibration, lambda: load_calibration(save_calibration(default_calibration()))],
        ids=["built-in", "round-trip"],
    )
    def test_sweep_digest(self, make):
        """Every front of the S = 1..400 sweep at both shipped regimes, refusals
        included, hashes to the digest pinned before calibrations were built in
        one pass over their columns: every figure's bytes, BRAM as its float hex."""
        digest, cal = hashlib.sha256(), make()
        for mhz, s in SWEEP:
            try:
                front = explore(s, 27, mhz, calibration=cal)
            except SvmSocError as exc:
                digest.update(repr((mhz, s, type(exc).__name__, str(exc))).encode())
                continue
            for e in front:
                est = e.estimate
                cells = (est.validity, est.latency_cycles, est.throughput_cycles,
                         float(est.bram).hex(), est.dsp, est.ff, est.lut, e.power_w)
                digest.update(repr((mhz, s, e.directive.name, *cells)).encode())
        assert digest.hexdigest() == SWEEP_DIGEST

    def test_clamp_counts_over_the_sweep(self):
        """How many candidates of the sweep clamp a fitted line below 0 (ROADMAP
        item 11), counted from Fit.at's raw values: each reads 0 BRAM."""
        cal = default_calibration()
        candidates = bram = latency = on_front = 0
        for mhz, s in SWEEP:
            try:
                front = {e.directive.name for e in explore(s, 27, mhz)}
            except UnknownCalibration:
                front = set()
            for design in (d for d in cal.dsp if d[1] == mhz):
                try:
                    (raw_latency, raw_bram, _, _), _ = cal.fits[design].at(s, 27, (0, 1, 2, 3))
                except CalibrationError:  # a candidate explore skips
                    continue
                candidates += 1
                if raw_bram < 0:
                    assert estimate_design(s, 27, *design).bram == 0.0
                    bram += 1
                    latency += round(raw_latency) < 0
                    on_front += design[0] in front
        assert (candidates, bram, latency, on_front) == (4409, 923, 3, 699)


def _default_doc() -> dict:
    return json.loads(save_calibration(default_calibration()))


V1_DOC = {"version": 1, "latency": {}, "resources": {}, "arm": {}, "hw_cycles": [], "power": {}}
PIPELINE_INNER_248 = SHIPPED_ANCHORS.index(
    next(r for r in SHIPPED_ANCHORS if (r.directive, r.sv_count) == ("pipeline-inner", 248))
)


# Bad cells for the numeric columns of each record kind, and the reason each
# is refused with, by what the column holds: a count (at least 1), a measured
# count (at least 0) or an amount (a finite non-negative real, clocks too).
# Recorded from the per-cell checks before they had type-exact fast paths.
BAD_CELLS = [float("nan"), float("inf"), -float("inf"), 10**400, True, None, "x", [1]]
BAD_CELL_IDS = ["nan", "inf", "-inf", "huge-int", "bool", "null", "text", "list"]
BAD_CELL_PATHS = [
    ("synth", PIPELINE_INNER_248, 0, "sv_count", "count"),
    ("synth", PIPELINE_INNER_248, 3, "regime_mhz", "amount"),
    ("synth", PIPELINE_INNER_248, 4, "latency_cycles", "measure"),
    ("synth", PIPELINE_INNER_248, 5, "bram", "amount"),
    ("arm", 0, 4, "timer_mhz", "amount"),
    ("arm", 0, 5, "plain_cycles", "measure"),
    ("cosim", 0, 5, "cycles", "count"),
    ("power", 0, 3, "design_id", "count"),
    ("power", 0, 4, "watts", "amount"),
]
BAD_CELL_PATH_IDS = ["synth-s", "synth-clock", "synth-latency", "synth-bram", "arm-timer",
                     "arm-cycles", "cosim-cycles", "power-design", "power-watts"]
_NOT_INTEGER = {
    "nan": "nan is not an integer",
    "inf": "inf is not an integer",
    "-inf": "-inf is not an integer",
    "bool": "True is not an integer",
    "null": "None is not an integer",
    "text": "invalid literal for int() with base 10: 'x'",
    "list": "[1] is not an integer",
}
JSON_CELL_FAULTS = {
    "count": {**_NOT_INTEGER, "huge-int": "must be an integer in 1..2**53"},
    "measure": {**_NOT_INTEGER, "huge-int": "must be an integer in 0..2**53"},
    "amount": {
        "nan": "nan is not a finite non-negative number",
        "inf": "inf is not a finite non-negative number",
        "-inf": "-inf is not a finite non-negative number",
        "huge-int": "must be an integer in 0..2**53",
        "bool": "True is not an integer",
        "null": "None is not an integer",
        "text": "could not convert string to float: 'x'",
        "list": "[1] is not an integer",
    },
}
_NOT_INTEGER_TEXT = {
    "nan": "invalid literal for int() with base 10: 'nan'",
    "inf": "invalid literal for int() with base 10: 'inf'",
    "-inf": "invalid literal for int() with base 10: '-inf'",
    "bool": "invalid literal for int() with base 10: 'True'",
    "null": "invalid literal for int() with base 10: 'None'",
    "text": "invalid literal for int() with base 10: 'x'",
    "list": "invalid literal for int() with base 10: '[1]'",
}
CSV_CELL_FAULTS = {
    "count": {**_NOT_INTEGER_TEXT, "huge-int": "must be an integer in 1..2**53"},
    "measure": {**_NOT_INTEGER_TEXT, "huge-int": "must be an integer in 0..2**53"},
    "amount": {
        "nan": "nan is not a finite non-negative number",
        "inf": "inf is not a finite non-negative number",
        "-inf": "-inf is not a finite non-negative number",
        "huge-int": "inf is not a finite non-negative number",
        "bool": "could not convert string to float: 'True'",
        "null": "could not convert string to float: 'None'",
        "text": "could not convert string to float: 'x'",
        "list": "could not convert string to float: '[1]'",
    },
}


ROWS_248_346_61 = tuple(
    json.dumps(list(r._replace(bram=float(r.bram))))
    for r in SHIPPED_ANCHORS
    if r.directive == "pipeline-inner"
)


class TestCalibrationPersistence:
    def test_save_load_round_trip_is_byte_stable(self):
        cal = default_calibration()
        text = save_calibration(cal)
        again = save_calibration(load_calibration(text))
        assert text == again

    @pytest.mark.parametrize(
        "make",
        [
            default_calibration,
            # the records in reverse, so the power lines come first
            lambda: fit_calibration(
                parse_anchor_csv("\n".join(map(csv_line, SHIPPED_RECORDS[::-1])))
            ),
        ],
        ids=["built-in", "anchor-csv"],
    )
    def test_load_of_save_equals_the_calibration(self, make):
        cal = make()
        assert load_calibration(save_calibration(cal)) == cal

    def test_derived_indices_are_declared_but_not_arguments(self):
        derived = {"fits", "dsp", "regimes", "arm", "cosim_cycles", "power"}
        fields = {f.name: f for f in dataclasses.fields(CalibrationSet)}
        assert set(fields) == {"records"} | derived
        assert not any(fields[name].init or fields[name].compare for name in derived)
        cal = default_calibration()
        again = CalibrationSet(cal.records + cal.records)  # a repeated record counts once
        assert again == cal and hash(again) == hash(cal)

    def test_set_respells_a_directive_as_every_loader_does(self):
        row = AnchorRow(248, 27, "pipeline-inner", 100.0, 14138, 19.0, 5, 1251, 2477)
        cosim = CosimRecord(61, 27, "partition-cyclic-2", 250.0, 250.0, 3693)
        power = PowerRecord(61, "unroll-most", "models", 2, 1.766)
        for rec, name in [
            (row, "Pipeline_Inner"),
            (row._replace(directive="partition-cyclic-16"), "cyclic-16"),
            (row._replace(directive="partition-cyclic-16"), "partition-cyclic-016"),
            (row._replace(directive="unroll-most"), " unroll-most"),
            (cosim, "cyclic-2"),
            (power, "Unroll-Most"),
        ]:
            respelled = [rec._replace(directive=name)]
            cal = CalibrationSet(tuple(respelled))
            assert cal.records == (rec,)
            assert cal == fit_calibration(respelled) == CalibrationSet((rec,))
        # the respelled set serves the estimators, explore and the round trip
        cal = CalibrationSet(
            (row._replace(directive="Pipeline_Inner"), row._replace(directive="cyclic-16"))
        )
        assert cal == fit_calibration(cal.records)
        est = estimate_design(248, 27, "Pipeline_Inner", 100, calibration=cal)
        assert est.latency_cycles == 14138
        names = [e.directive.name for e in explore(248, 27, 100, calibration=cal)]
        assert sorted(names) == ["partition-cyclic-16", "pipeline-inner"]
        assert load_calibration(save_calibration(cal)) == cal

    def test_loaded_calibration_estimates_identically(self):
        cal = load_calibration(save_calibration(default_calibration()))
        est = estimate_design(248, 27, "pipeline-inner", 100, calibration=cal)
        assert est.latency_cycles == 14138 and est.validity == ANCHOR_EXACT
        assert estimate_arm_cycles(346, 27, (100, 666.67), calibration=cal) == 430967
        assert estimate_power("model2", 2, calibration=cal) == 2.125

    def test_saved_file_holds_the_records(self):
        doc = _default_doc()
        assert list(doc) == ["version", "synth", "arm", "cosim", "power"]
        rows = [tuple(cells) for kind in list(doc)[1:] for cells in doc[kind]]
        assert rows == [tuple(r) for r in SHIPPED_RECORDS]

    def test_record_order_does_not_change_estimates(self):
        cal = fit_calibration(SHIPPED_RECORDS[::-1])
        for s, regime in ((248, 100), (300, 100), (61, 250)):
            assert explore(s, 27, regime, calibration=cal) == explore(s, 27, regime)

    @pytest.mark.parametrize(
        "text",
        ["not json", "{}", '{"version": 2, "synth": [{}]}', "[" * 100_000, "1" * 5000],
        ids=["text", "empty", "record-object", "deep", "long-int"],
    )
    def test_rejects_garbage(self, text):
        with pytest.raises(CalibrationError):
            load_calibration(text)

    def test_rejects_version_1(self):
        with pytest.raises(CalibrationError, match="version must be 2; write it again"):
            load_calibration(json.dumps(V1_DOC))

    @pytest.mark.parametrize("kind", ["synth", "arm", "cosim", "power"])
    def test_rejects_kind_that_is_not_a_list(self, kind):
        with pytest.raises(CalibrationError, match=f"'{kind}' must be a list of records"):
            load_calibration(json.dumps({"version": 2, kind: {}}))

    def test_rejects_unknown_kind(self):
        doc = _default_doc()
        doc["latency"] = []
        with pytest.raises(CalibrationError, match="unknown record kind 'latency'"):
            load_calibration(json.dumps(doc))

    @pytest.mark.parametrize(
        "text, key",
        [
            # json.loads keeps the last of the two: the file read as the 61 row alone
            ('{"version": 2, "synth": [%s, %s], "synth": [%s]}' % ROWS_248_346_61, "synth"),
            ('{"version": 2, "synth": [%s], "version": 2}' % ROWS_248_346_61[0], "version"),
            ('{"version": 2, "synth": [[{"a": 1, "a": 2}]]}', "a"),
        ],
        ids=["kind", "version", "in-a-cell"],
    )
    def test_rejects_a_key_named_twice(self, text, key):
        with pytest.raises(CalibrationError) as exc:
            load_calibration(text)
        assert str(exc.value) == f"calibration file is malformed: key {key!r} appears twice"

    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("synth", lambda row: row[:-1]),
            ("synth", lambda row: row + [1]),
            ("arm", lambda row: row[:-1]),
            ("cosim", lambda row: row + [1]),
            ("power", lambda row: []),
        ],
        ids=["synth-short", "synth-long", "arm-short", "cosim-long", "power-empty"],
    )
    def test_rejects_wrong_column_count(self, kind, edit):
        doc = _default_doc()
        doc[kind][0] = edit(doc[kind][0])
        with pytest.raises(CalibrationError, match=f"{kind} record has .* columns"):
            load_calibration(json.dumps(doc))

    def test_rejects_conflicting_rows(self):
        doc = _default_doc()
        clash = list(doc["synth"][PIPELINE_INNER_248])
        clash[4] += 1
        doc["synth"].append(clash)
        with pytest.raises(CalibrationError, match="conflicting synth records"):
            load_calibration(json.dumps(doc))

    @pytest.mark.parametrize("value_id, value", zip(BAD_CELL_IDS, BAD_CELLS), ids=BAD_CELL_IDS)
    @pytest.mark.parametrize("path", BAD_CELL_PATHS, ids=BAD_CELL_PATH_IDS)
    def test_rejects_bad_number_cells(self, path, value_id, value):
        doc = _default_doc()
        kind, row, column, name, holds = path
        doc[kind][row][column] = value
        with pytest.raises(CalibrationError) as exc:
            load_calibration(json.dumps(doc))
        reason = JSON_CELL_FAULTS[holds][value_id]
        assert str(exc.value) == f"calibration file is malformed: {kind} {name}: {reason}"

    @pytest.mark.parametrize("value_id, value", zip(BAD_CELL_IDS, BAD_CELLS), ids=BAD_CELL_IDS)
    @pytest.mark.parametrize("path", BAD_CELL_PATHS, ids=BAD_CELL_PATH_IDS)
    def test_rejects_bad_number_cells_as_csv_text(self, path, value_id, value):
        kind, row, column, name, holds = path
        cells = [str(cell) for cell in _default_doc()[kind][row]]
        cells[column] = str(value)
        with pytest.raises(ValueError) as exc:
            parse_anchor_csv(",".join([kind] + cells))
        reason = CSV_CELL_FAULTS[holds][value_id]
        assert str(exc.value) == f"anchor csv line 1: {kind} {name}: {reason}"

    @pytest.mark.parametrize(
        "cell", ["x" * 40, "\U000e0001" * 40, "9" * 5000], ids=["40", "escapes", "digit-limit"]
    )
    def test_cell_that_is_not_cut_keeps_the_int_text(self, cell):
        # int() quotes at most 200 characters of the repr, and nothing past its digit limit
        with pytest.raises(ValueError) as want:
            int(cell)
        with pytest.raises(ValueError) as exc:
            parse_anchor_csv(f"248,27,pipeline-inner,100,{cell},19,5,1251,2477")
        assert str(exc.value) == f"anchor csv line 1: synth latency_cycles: {want.value}"

    def test_rejects_zero_cosim_cycles(self):
        doc = _default_doc()
        doc["cosim"][0][-1] = 0
        with pytest.raises(CalibrationError, match=r"cosim cycles: must be an integer in 1\.\.2\*\*53"):
            load_calibration(json.dumps(doc))

    def test_counts_are_bounded_by_max_count(self):
        doc = _default_doc()
        doc["synth"][PIPELINE_INNER_248][4] = MAX_COUNT
        cal = load_calibration(json.dumps(doc))
        assert estimate_latency(248, 27, "pipeline-inner", 100, calibration=cal).latency_cycles == MAX_COUNT
        assert estimate_latency(10**6, 27, "pipeline-inner", 100, calibration=cal).validity == EXTRAPOLATED
        doc["synth"][PIPELINE_INNER_248][4] = MAX_COUNT + 1
        with pytest.raises(CalibrationError, match="synth latency_cycles"):
            load_calibration(json.dumps(doc))

    @staticmethod
    def _unroll_most_bram_overflows(doc: dict) -> CalibrationSet:
        """doc's calibration with unroll-most's 100 MHz BRAM line overflowing at S=1000."""
        for row in doc["synth"]:
            if row[2:4] == ["unroll-most", 100.0]:
                row[5] = 0.0 if row[0] == 248 else 1e306
        return load_calibration(json.dumps(doc))

    def test_non_finite_resource_estimate_is_refused(self):
        cal = self._unroll_most_bram_overflows(_default_doc())
        with pytest.raises(CalibrationError, match="not finite at S=1000"):
            estimate_design(1000, 27, "unroll-most", 100, calibration=cal)

    def test_explore_skips_a_design_that_is_not_finite_at_s(self):
        cal = self._unroll_most_bram_overflows(_default_doc())
        front = explore(1000, 27, 100, calibration=cal)
        names = [e.directive.name for e in front]
        assert names and "unroll-most" not in names
        for entry in front:
            assert entry.estimate == estimate_design(
                1000, 27, entry.directive.name, 100, calibration=cal
            )

    def test_explore_with_no_finite_design_is_refused(self):
        doc = _default_doc()
        doc["synth"] = [row for row in doc["synth"] if row[2:4] == ["unroll-most", 100.0]]
        cal = self._unroll_most_bram_overflows(doc)
        with pytest.raises(
            UnknownCalibration, match="^no directive calibrated at 100 MHz can estimate S=1000"
        ):
            explore(1000, 27, 100, calibration=cal)


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, child in items for p in _leaf_paths(child, path + (key,))]


DEFAULT_DOC = _default_doc()
LEAF_PATHS = _leaf_paths(DEFAULT_DOC)
LEAF_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, 1, 10**400, -(10**400), 1e308, -1e308, 5e-324, -0.0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.lists(st.integers(-3, 400), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
)


class TestTotality:
    """Malformed calibration and anchor input raises a package error only."""

    @given(st.lists(st.tuples(st.sampled_from(LEAF_PATHS), LEAF_VALUES), min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_load_calibration_and_estimates_are_total(self, mutations):
        doc = json.loads(json.dumps(DEFAULT_DOC))
        for path, value in mutations:
            node = doc
            for step in path[:-1]:
                node = node[step]
            node[path[-1]] = value
        try:
            cal = load_calibration(json.dumps(doc))
        except SvmSocError:
            return
        for directive, regime in cal.dsp:
            for s in (1, 61, 248, 300, 1000):
                for fl in (27, 30):
                    try:
                        estimate_design(s, fl, directive, regime, calibration=cal)
                    except SvmSocError:
                        pass
        for clocks in cal.arm:
            for s in (1, 61, 248, 1000):
                for optimized in (False, True):
                    try:
                        estimate_arm_cycles(s, 27, clocks, optimized, calibration=cal)
                    except SvmSocError:
                        pass
        for regime in {r for _, r in cal.dsp}:
            try:
                explore(248, 27, regime, calibration=cal)
            except SvmSocError:
                pass

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(ANCHOR_LINES),
                st.tuples(
                    st.sampled_from(ANCHOR_LINES), st.integers(0, 9), ANCHOR_CELLS
                ).map(lambda t: _replace_cell(*t)),
                st.text(max_size=30),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_parse_anchor_csv_is_total(self, lines):
        try:
            rows = parse_anchor_csv("\n".join(lines))
        except ValueError:
            return
        for row in rows:
            assert all(np.isfinite(cell) for cell in row if isinstance(cell, float))
        try:
            fit_calibration(rows)
        except ValueError:
            pass


    @given(st.lists(csv_lines(), max_size=6).map("\n".join))
    @settings(max_examples=300, deadline=None)
    def test_anchor_csv_fits_or_refuses_in_one_line(self, text):
        """An anchor CSV's text yields a CalibrationSet, or a one-line ValueError."""
        try:
            cal = fit_calibration(parse_anchor_csv(text))
        except ValueError as exc:
            message = str(exc)
            assert message and message.splitlines() == [message]
            return
        assert isinstance(cal, CalibrationSet) and cal.records


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

    def test_every_record_kind_round_trips(self):
        rows = parse_anchor_csv("\n".join([CSV_HEADER] + [csv_line(r) for r in SHIPPED_RECORDS]))
        assert rows == list(SHIPPED_RECORDS)
        assert save_calibration(fit_calibration(rows)) == save_calibration(default_calibration())

    def test_synth_kind_cell_is_optional(self):
        bare = "248,27,pipeline-inner,100,14138,19,5,1251,2477"
        assert parse_anchor_csv("synth," + bare) == parse_anchor_csv(bare)

    def test_unknown_kind_rejected(self):
        text = "248,27,pipeline-inner,100,14138,19,5,1251,2477\nwatts,61,1.5\n"
        with pytest.raises(ValueError, match="line 2: unknown record kind 'watts'"):
            parse_anchor_csv(text)

    def test_header_optional_and_comments_skipped(self):
        text = "# comment\n248,27,pipeline-inner,100,14138,19,5,1251,2477\n"
        rows = parse_anchor_csv(text)
        assert rows[0].latency_cycles == 14138

    def test_header_after_leading_comments(self):
        text = f"# measured\n\n{CSV_HEADER}\n248,27,pipeline-inner,100,14138,19,5,1251,2477\n"
        rows = parse_anchor_csv(text)
        assert len(rows) == 1 and rows[0].latency_cycles == 14138

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.5,0.25\n", "line 1: unknown record kind '0.5'"),
            ("0.5 0.25\n0.125 1\n", "line 1: unknown record kind '0.5 0.25'"),
            (",sv_count\n", "line 1: unknown record kind ''"),
        ],
    )
    def test_a_first_cell_without_a_letter_is_no_header(self, text, message):
        with pytest.raises(ValueError, match=f"^anchor csv {re.escape(message)}$"):
            parse_anchor_csv(text)

    def test_header_only_on_the_first_row(self):
        text = f"248,27,pipeline-inner,100,14138,19,5,1251,2477\n{CSV_HEADER}\n"
        with pytest.raises(ValueError, match="line 2"):
            parse_anchor_csv(text)

    @pytest.mark.parametrize(
        "row, what",
        [
            ("248,27,pipeline-inner,100,14138,nan,5,1251,2477", "nan"),
            ("248,27,pipeline-inner,100,14138,inf,5,1251,2477", "inf"),
            ("248,27,pipeline-inner,100,14138,1e400,5,1251,2477", "inf"),
            ("248,27,pipeline-inner,inf,14138,19,5,1251,2477", "inf"),
            ("248,27,pipeline-inner,nan,14138,19,5,1251,2477", "nan"),
        ],
    )
    def test_non_finite_measurement_rejected(self, row, what):
        with pytest.raises(ValueError, match=f"line 1: .*{what}"):
            parse_anchor_csv(row + "\n")

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

    @pytest.mark.parametrize(
        "line, what",
        [
            ("1" + "0" * 400 + ",27,pipeline-inner,100,14138,19,5,1251,2477", "synth sv_count"),
            ("arm,61,27,250,250,250,77367", "arm record has 7 columns, got 6"),
            ("cosim,61,27,pipeline-inner,250,250,0", "cosim cycles"),
            ("power,61,pipeline-inner,models,1,-1.686", "power watts"),
        ],
        ids=["huge-s", "arm-short", "zero-cosim-cycles", "negative-watts"],
    )
    def test_malformed_record_rejected(self, line, what):
        with pytest.raises(ValueError, match=f"line 1: {what}"):
            parse_anchor_csv(line + "\n")


ROW = AnchorRow(248, 27, "pipeline-inner", 100.0, 14138, 19.0, 5, 1251, 2477)
ARM = ArmRecord(61, 27, 250.0, 250.0, 250.0, 77367, 22398)


def _round_trips(cal) -> bool:
    text = save_calibration(cal)
    return "NaN" not in text and "Infinity" not in text and load_calibration(text) == cal


class TestRecordCheck:
    """A CalibrationSet checks every record it is built from, as the loaders do."""

    @pytest.mark.parametrize(
        "rec, normalised",
        [
            (ROW._replace(regime_mhz=100.004), ROW),
            (ARM._replace(fpga_mhz=250.004), ARM),
            (ROW._replace(sv_count="248"), ROW),
            (ROW._replace(bram=19, regime_mhz=100), ROW),
        ],
        ids=["synth-off-grid-clock", "arm-off-grid-clock", "digit-text-s", "int-amounts"],
    )
    def test_cells_are_normalised_and_round_trip(self, rec, normalised):
        cal = CalibrationSet((rec,))
        assert cal.records == (normalised,)
        assert list(map(type, cal.records[0])) == list(map(type, normalised))
        assert cal == fit_calibration([rec]) == CalibrationSet((normalised,))
        assert _round_trips(cal)
        # an off-grid clock names the calibrated one, as every lookup rounds it
        if type(rec) is AnchorRow:
            est = estimate_design(248, 27, "pipeline-inner", 100.004, calibration=cal)
            assert est.latency_cycles == 14138
        else:
            assert estimate_arm_cycles(61, 27, (250.004, 250), calibration=cal) == 77367

    @pytest.mark.parametrize(
        "rec, message",
        [
            (ROW._replace(latency_cycles=-5),
             "synth latency_cycles: must be an integer in 0..2**53"),
            (ROW._replace(latency_cycles=True), "synth latency_cycles: True is not an integer"),
            (ROW._replace(bram=float("nan")),
             "synth bram: nan is not a finite non-negative number"),
            (ARM._replace(timer_mhz=float("inf")),
             "arm timer_mhz: inf is not a finite non-negative number"),
            (ROW._replace(directive="pipeline-sideways"),
             "synth directive: unknown directive 'pipeline-sideways'"),
            (ROW._replace(directive="unroll-partial"),
             "synth directive: unknown directive 'unroll-partial'"),
            (PowerRecord(61, "unroll-most", "models", 0, 1.7),
             "power design_id: must be an integer in 1..2**53"),
        ],
        ids=["negative-latency", "bool-latency", "nan-bram", "inf-timer", "directive",
             "factorless-directive", "zero-design"],
    )
    def test_faulty_cells_are_refused_as_the_schema_names_them(self, rec, message):
        for build in (lambda: CalibrationSet((rec,)), lambda: fit_calibration([rec])):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message

    @pytest.mark.parametrize("value", [tuple(ROW), None, "x", [tuple(ROW)]], ids=repr)
    def test_a_value_that_is_not_a_record_is_refused(self, value):
        with pytest.raises(ValueError, match="is not a calibration record"):
            CalibrationSet((value,))

    @pytest.mark.parametrize(
        "row_type, cells, message",
        [
            (AnchorRow, tuple(ROW)[:8], "synth record has 9 columns, got 8"),
            (AnchorRow, (*ROW, 1), "synth record has 9 columns, got 10"),
            (ArmRecord, tuple(ARM)[:6], "arm record has 7 columns, got 6"),
            (PowerRecord, (), "power record has 5 columns, got 0"),
        ],
        ids=["synth-short", "synth-long", "arm-short", "power-empty"],
    )
    def test_a_record_of_another_width_is_refused(self, row_type, cells, message):
        rec = tuple.__new__(row_type, cells)  # past the type's constructor
        for build in (lambda: CalibrationSet((rec,)), lambda: fit_calibration([ROW, rec])):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message
        # in record order with the cells of other records
        bad_cell = ROW_346._replace(bram=-1.0)
        with pytest.raises(ValueError, match="synth bram"):
            CalibrationSet((bad_cell, rec))
        with pytest.raises(ValueError) as exc:
            CalibrationSet((rec, bad_cell))
        assert str(exc.value) == message

    def test_every_cell_is_checked_before_any_conflict(self):
        clash = ROW._replace(latency_cycles=1)
        with pytest.raises(ValueError, match="synth bram"):
            CalibrationSet((ROW, clash, ROW._replace(sv_count=346, bram=-1.0)))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(SHIPPED_RECORDS),
                st.lists(
                    st.tuples(
                        st.integers(0, 8),
                        st.sampled_from(
                            [0, -1, -5, 1, 2**53, 2**53 + 1, 10**400, float("nan"),
                             float("inf"), -float("inf"), -0.0, 0.5, 1e308, True, False,
                             None, "", "0", "17", "248", "-3", "1e400", "nan", 100.004,
                             250.004, 666.666, "666.666", "Cyclic_16", "Pipeline_Inner",
                             " unroll-most", "cyclic-1", "partition-cyclic-016", "M1"]
                        ),
                    ),
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_a_set_that_builds_equals_its_round_trip(self, edits):
        records = []
        for rec, cells in edits:
            values = list(rec)
            for column, value in cells:
                values[column % len(values)] = value
            records.append(type(rec)(*values))
        try:
            cal = CalibrationSet(tuple(records))
        except ValueError:
            return
        assert _round_trips(cal)
        assert cal == fit_calibration(records)


ROW_346 = ROW._replace(sv_count=346, latency_cycles=19626, bram=35.0, ff=1258, lut=2465)
COSIM = CosimRecord(61, 27, "pipeline-inner", 250.0, 250.0, 3693)
POWER = PowerRecord(248, "pipeline-inner", "model1", 1, 1.756)
NAN = float("nan")
# A few records of each kind, so that a drawn record often repeats another's identity
RECORD_POOL = [ROW, ROW_346, ARM, ARM._replace(sv_count=248), COSIM, POWER,
               POWER._replace(design_id=2, directive="unroll-most")]
CELL_VALUES = [1, 1.0, True, False, 0, -1, 2**53 + 1, "1", " 248 ", "17", NAN, float("inf"),
               -0.0, 0.0, 0.5, 100.0, 250.0, 666.666, 100.004, "Pipeline_Inner", "Cyclic_16",
               "pipeline-inner", "M1", "model1", None, [1], [], {"a": 1}]


def _set_outcome(build, records):
    """The records of the set built, in repr (which tells 1 from 1.0 and True, and
    -0.0 from 0.0), or the error raised."""
    try:
        return repr(build(tuple(records)).records)
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)


class TestColumnCheck:
    """A CalibrationSet checks its records a column at a time, and refuses or
    keeps exactly what the record-by-record check did (tests/ref_calibration_set.py)."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(RECORD_POOL),
                st.lists(st.tuples(st.integers(0, 8), st.sampled_from(CELL_VALUES)), max_size=2),
            ),
            min_size=1,
            max_size=6,
        )
    )
    # a nan amount behind a finite one: min and max are both finite
    @example([(ROW, []), (ROW_346, [(5, NAN)])])
    # 1.0 and True are one value, but a bool is no clock
    @example([(ROW, [(3, 1.0)]), (ROW_346, [(3, True)])])
    @example([(ROW, [(0, True)]), (ARM, [(5, True)])])
    # a conflict after a faulty cell, kinds interleaved
    @example([(ROW, []), (ARM, []), (ROW_346, [(7, "x")]), (ROW, [(8, 1)]), (POWER, [])])
    # unhashable cells, respellings and cells of mixed types in one column
    @example([(ROW, [(2, [1])]), (ROW_346, [(2, "Pipeline_Inner")])])
    @example([(ROW, [(3, 100)]), (ROW_346, [(3, 100.004)]), (COSIM, [(4, 666.666)])])
    @example([(POWER, [(2, -0.0)]), (POWER, [(2, 0.0), (3, 2)])])
    @example([(ROW, [(0, " 248 ")]), (ROW, [])])
    @settings(max_examples=600, deadline=None)
    def test_outcome_matches_the_record_by_record_check(self, edits):
        records = []
        for rec, cells in edits:
            values = list(rec)
            for column, value in cells:
                values[column % len(values)] = value
            records.append(type(rec)(*values))
        new = _set_outcome(CalibrationSet, records)
        assert new == _set_outcome(ref_calibration_set.calibration_set, records)

    @pytest.mark.parametrize("value", [None, tuple(ROW), "x"], ids=repr)
    def test_a_value_that_is_not_a_record_is_named_in_record_order(self, value):
        records = (ROW, ROW_346._replace(bram=-1.0), value)
        assert _set_outcome(CalibrationSet, records) == (
            ValueError, "synth bram: -1.0 is not a finite non-negative number"
        )
        records = (ROW, value, ROW_346._replace(bram=-1.0))
        assert _set_outcome(CalibrationSet, records) == (
            ValueError, f"a {type(value).__name__} is not a calibration record"
        )


def _hand_written(edit) -> str:
    """The shipped calibration file as a person might write it: edit(doc) changes the doc."""
    doc = _default_doc()
    edit(doc)
    return json.dumps(doc)


def _set_cells(rows, column, value):
    for row in rows:
        row[column] = value(row[column])


HAND_WRITTEN = {
    "int-bram": lambda doc: _set_cells(doc["synth"], 5, int),
    "int-clocks": lambda doc: (_set_cells(doc["synth"], 3, int), _set_cells(doc["cosim"], 3, int)),
    "mixed-int-float-clocks": lambda doc: _set_cells(doc["arm"][:1], 2, int),
    "repeated-record": lambda doc: (doc["synth"].append(doc["synth"][3]),
                                    doc["power"].insert(1, doc["power"][0])),
    "respelled-directive": lambda doc: (_set_cells(doc["synth"][:3], 2, str.upper),
                                        _set_cells(doc["power"], 1, lambda d: d.replace("-", "_"))),
}


class TestHandWrittenCalibration:
    """A calibration written by hand, with integer cells, repeats or respellings,
    builds the shipped set on the column path: the fault walk never runs."""

    @pytest.mark.parametrize("edit", HAND_WRITTEN.values(), ids=HAND_WRITTEN)
    def test_builds_the_canonical_set_without_the_fault_walk(self, monkeypatch, edit):
        text = _hand_written(edit)
        assert text != json.dumps(_default_doc())
        monkeypatch.setattr(synth, "_fault", _no_fault)
        cal = load_calibration(text)
        assert cal == default_calibration()
        assert repr(cal.records) == repr(SHIPPED_RECORDS)  # 19 becomes 19.0, 100 becomes 100.0
        assert save_calibration(cal) == save_calibration(default_calibration())

    def test_a_clash_left_after_the_repeats_go_is_named(self):
        doc = _default_doc()
        doc["synth"] += [doc["synth"][3], doc["synth"][3][:4] + [1, 1.0, 1, 1, 1]]
        with pytest.raises(CalibrationError, match="conflicting synth records"):
            load_calibration(json.dumps(doc))


def _mutate(doc: dict, mutation) -> None:
    """Apply one edit to a calibration document: a kind, a record or a cell."""
    what, (k, i, column), value = mutation
    kind = list(doc)[1 + k % 4]
    if what == "kind":
        doc["latency" if value == "add" else kind] = [] if value == "add" else value
        return
    rows = doc[kind]
    if not isinstance(rows, list) or not rows:
        return
    i %= len(rows)
    if what == "record":
        rows[i] = value
    elif not isinstance(rows[i], list):
        return
    elif what == "drop":
        rows[i] = rows[i][:-1]
    elif what == "extend":
        rows[i] = rows[i] + [value]
    elif rows[i]:
        rows[i][column % len(rows[i])] = value


MUTATIONS = st.tuples(
    st.sampled_from(["cell", "cell", "cell", "drop", "extend", "record", "kind"]),
    st.tuples(st.integers(0, 3), st.integers(0, 40), st.integers(0, 8)),
    st.one_of(LEAF_VALUES, st.sampled_from(["replace", "add"])),
)


class TestLoaderFaultOrder:
    """load_calibration names the first fault in the file, as the loader that
    checked every cell itself did (tests/ref_load_calibration.py)."""

    def test_a_cell_fault_before_a_shape_fault_is_named(self):
        doc = _default_doc()
        doc["synth"][0][4] = -1
        doc["synth"][1] = doc["synth"][1][:-1]
        for load in (load_calibration, ref_load_calibration.load_calibration):
            with pytest.raises(CalibrationError) as exc:
                load(json.dumps(doc))
            assert str(exc.value) == (
                "calibration file is malformed: synth latency_cycles: must be an integer"
                " in 0..2**53"
            )

    @given(st.lists(MUTATIONS, min_size=1, max_size=4))
    @example([("cell", (0, 0, 4), -1), ("drop", (0, 1, 0), 0)])
    @example([("cell", (3, 0, 4), "x"), ("kind", (0, 0, 0), "add")])
    @example([("cell", (0, 5, 0), 0), ("record", (0, 3, 0), None)])
    @settings(max_examples=500, deadline=None)
    def test_refuses_as_the_cell_by_cell_loader_did(self, mutations):
        doc = json.loads(json.dumps(DEFAULT_DOC))
        for mutation in mutations:
            _mutate(doc, mutation)
        text = json.dumps(doc)
        outcomes = []
        for load in (load_calibration, ref_load_calibration.load_calibration):
            try:
                outcomes.append(load(text))
            except SvmSocError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
