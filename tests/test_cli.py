import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svmsoc import (
    default_calibration,
    emit_native_model,
    parse_svmlight_model,
    save_calibration,
)
from svmsoc import cli
from svmsoc.cli import _build_parser, main
from svmsoc.synth import SHIPPED_ANCHORS, SHIPPED_RECORDS, format_mhz, format_pairing

from test_synth import csv_line

HUGE = "1" + "0" * 400  # a 401-digit integer, beyond every float

# calibration cells past the 40 characters a message quotes
LONG_INT = "9" * 230 + "x"
LONG_REAL = "1" * 299 + "x"
LONG_NAME = "pipeline-" + "x" * 291
LONG_FACTOR = "unroll-partial-" + "x" * 285
LONG_INT_Q, LONG_REAL_Q, LONG_NAME_Q, LONG_FACTOR_Q = (
    repr(text[:40] + "…") for text in (LONG_INT, LONG_REAL, LONG_NAME, LONG_FACTOR)
)

SVMLIGHT_SMALL = """\
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
1 1:1 2:2 #
-0.5 1:3 2:1 #
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out: str) -> dict:
    return dict(line.split("=", 1) for line in out.strip().splitlines())


@pytest.fixture()
def tiny(tmp_path):
    """One support vector [3], weight 2, bias 0: distance(x) = 6x."""
    (tmp_path / "svs.txt").write_text("3\n")
    (tmp_path / "alpha.txt").write_text("0\n2\n")
    (tmp_path / "test.txt").write_text("1\n")
    (tmp_path / "ds.csv").write_text("1,1\n-2,-1\n")
    return tmp_path


@pytest.fixture(scope="module")
def gen61(tmp_path_factory):
    d = tmp_path_factory.mktemp("gen61")
    assert main(["gen", "61", "27", "7", "--out", str(d)]) == 0
    return d


class TestClassify:
    def test_single_instance(self, capsys, tiny):
        code, out, _ = run(
            capsys, "classify", "--svs", str(tiny / "svs.txt"),
            "--alpha", str(tiny / "alpha.txt"), "--input", str(tiny / "test.txt"),
        )
        assert code == 0
        assert out == "+1 melanoma 6.0\n"

    def test_single_instance_machine(self, capsys, tiny):
        code, out, _ = run(
            capsys, "classify", "--svs", str(tiny / "svs.txt"),
            "--alpha", str(tiny / "alpha.txt"), "--input", str(tiny / "test.txt"),
            "--machine",
        )
        assert code == 0
        assert out == "label=+1\ndistance=6.0\n"

    def test_threshold_moves_the_label(self, capsys, tiny):
        code, out, _ = run(
            capsys, "classify", "--svs", str(tiny / "svs.txt"),
            "--alpha", str(tiny / "alpha.txt"), "--input", str(tiny / "test.txt"),
            "--th", "10",
        )
        assert code == 0
        assert out.startswith("-1 non-melanoma 6.0")

    def test_dataset_accuracy_line(self, capsys, tiny):
        code, out, _ = run(
            capsys, "classify", "--svs", str(tiny / "svs.txt"),
            "--alpha", str(tiny / "alpha.txt"), "--input", str(tiny / "ds.csv"),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "row 1: +1 melanoma 6.0 (true +1)"
        assert lines[1] == "row 2: -1 non-melanoma -12.0 (true -1)"
        assert lines[-1] == "accuracy 100.00% (2/2)"

    def test_dataset_machine(self, capsys, tiny):
        code, out, _ = run(
            capsys, "classify", "--svs", str(tiny / "svs.txt"),
            "--alpha", str(tiny / "alpha.txt"), "--input", str(tiny / "ds.csv"),
            "--machine",
        )
        assert code == 0
        assert "row=1 predicted=+1 true=+1 distance=6.0" in out
        assert "accuracy_percent=100.00" in out
        assert "correct=2" in out and "total=2" in out

    def test_svmlight_and_native_agree(self, capsys, tmp_path):
        (tmp_path / "m.svml").write_text(SVMLIGHT_SMALL)
        svs, alpha = emit_native_model(parse_svmlight_model(SVMLIGHT_SMALL))
        (tmp_path / "svs.txt").write_text(svs)
        (tmp_path / "alpha.txt").write_text(alpha)
        (tmp_path / "x.txt").write_text("2 1\n")
        _, via_model, _ = run(
            capsys, "classify", "--model", str(tmp_path / "m.svml"),
            "--input", str(tmp_path / "x.txt"),
        )
        _, via_native, _ = run(
            capsys, "classify", "--svs", str(tmp_path / "svs.txt"),
            "--alpha", str(tmp_path / "alpha.txt"), "--input", str(tmp_path / "x.txt"),
        )
        assert via_model == via_native == "+1 melanoma 0.0\n"

    def test_missing_file_is_input_error(self, capsys, tiny):
        code, out, err = run(
            capsys, "classify", "--svs", str(tiny / "nope.txt"),
            "--alpha", str(tiny / "alpha.txt"), "--input", str(tiny / "test.txt"),
        )
        assert code == 1 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv,want",
        [
            (["classify", "--svs", "svs.txt", "--alpha", "alpha.txt", "--input", "bad"], 1),
            (["classify", "--svs", "bad", "--alpha", "alpha.txt", "--input", "test.txt"], 1),
            # an unusable calibration file, as one that is not JSON
            (["synth", "248", "27", "pipeline-inner", "100", "--calibration", "bad"], 2),
            (["fit", "bad"], 1),
        ],
        ids=["input", "svs", "calibration", "fit-anchors"],
    )
    def test_undecodable_file_names_the_file(self, capsys, tiny, monkeypatch, argv, want):
        monkeypatch.chdir(tiny)
        (tiny / "bad").write_bytes(b"\xff\xfe\x00 not text")
        code, out, err = run(capsys, *argv)
        assert code == want and out == ""
        assert err.startswith("error: cannot read bad: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "size, want",
        [(64, (0, "+1 melanoma 6.0\n", "")),
         (65, (1, "", "error: cannot read big.txt: larger than 64 bytes\n"))],
    )
    def test_input_past_the_read_cap_is_one_line(self, capsys, tiny, monkeypatch, size, want):
        monkeypatch.chdir(tiny)
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", 64, raising=False)
        (tiny / "big.txt").write_text("1" + " " * (size - 2) + "\n")  # one feature, padded
        argv = ["classify", "--svs", "svs.txt", "--alpha", "alpha.txt", "--input", "big.txt"]
        assert run(capsys, *argv) == want

    def test_file_past_the_read_cap_is_refused_unread(self, capsys, tiny, monkeypatch):
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", 64)
        (tiny / "big.txt").write_text("1" + " " * 98 + "\n")
        reads = []  # the path of each read call

        def counted_open(path, *args, **kwargs):
            f = open(path, *args, **kwargs)
            read = f.read
            f.read = lambda *size: reads.append(path) or read(*size)
            return f

        monkeypatch.setattr(cli, "open", counted_open, raising=False)
        code, out, err = run(
            capsys, "classify", "--svs", str(tiny / "svs.txt"),
            "--alpha", str(tiny / "alpha.txt"), "--input", str(tiny / "big.txt"),
        )
        assert (code, out) == (1, "")
        assert err == f"error: cannot read {tiny / 'big.txt'}: larger than 64 bytes\n"
        assert str(tiny / "svs.txt") in reads and str(tiny / "big.txt") not in reads

    # lines of commas, other characters and whitespace that breaks no line,
    # joined by each line break str.splitlines knows
    @pytest.mark.parametrize("brk", [*"\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", "\r\n"], ids=repr)
    @given(st.lists(st.text(" \t\x1f\xa0,1x", max_size=4)))
    @settings(max_examples=40)
    def test_csv_decision_reads_the_first_non_blank_line(self, brk, lines):
        text = brk.join(lines)
        first = next((ln for ln in text.splitlines() if ln.strip()), "")
        assert ("," in cli._FIRST_LINE.match(text)[0]) == ("," in first)

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_input_is_refused_at_the_read_cap(self, capsys, tiny, monkeypatch):
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", 64)  # with no cap to patch, fails unread
        code, out, err = run(
            capsys, "classify", "--svs", str(tiny / "svs.txt"),
            "--alpha", str(tiny / "alpha.txt"), "--input", "/dev/zero",
        )
        assert (code, out, err) == (1, "", "error: cannot read /dev/zero: larger than 64 bytes\n")

    def test_missing_calibration_file_is_input_error(self, capsys, tiny):
        code, out, err = run(
            capsys, "synth", "248", "27", "pipeline-inner", "100",
            "--calibration", str(tiny / "nope.json"),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {tiny / 'nope.json'}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["classify", "--svs", "svs.txt", "--alpha", "alpha.txt", "--input", "no\nfile"], 1),
            (["synth", "248", "27", "pipeline-inner", "100", "--calibration", "no\nfile"], 1),
            (["fit", "no\nfile"], 1),
            (["synth", "248", "27", "pipeline-inner", "100", "--calibration", "bad\x1bname"], 2),
        ],
        ids=["input", "calibration", "fit-anchors", "undecodable-calibration"],
    )
    def test_unprintable_path_is_escaped_on_one_line(self, capsys, tiny, monkeypatch, argv, want):
        monkeypatch.chdir(tiny)
        (tiny / "bad\x1bname").write_bytes(b"\xff not text")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (want, "")
        assert err.startswith(f"error: cannot read {argv[-1]!r}: ") and err.count("\n") == 1

    def test_nonlinear_kernel_rejected(self, capsys, tmp_path):
        bad = SVMLIGHT_SMALL.replace("0 # kernel type", "2 # kernel type")
        (tmp_path / "m.svml").write_text(bad)
        (tmp_path / "x.txt").write_text("2 1\n")
        code, _, err = run(
            capsys, "classify", "--model", str(tmp_path / "m.svml"),
            "--input", str(tmp_path / "x.txt"),
        )
        assert code == 1 and "kernel" in err

    def test_value_above_binary32_range_is_one_error_line(self, capsys, tiny):
        (tiny / "svs.txt").write_text("1e39\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(
                capsys, "classify", "--svs", str(tiny / "svs.txt"),
                "--alpha", str(tiny / "alpha.txt"), "--input", str(tiny / "test.txt"),
            )
        assert caught == []
        assert code == 1 and err == "error: non-finite value in model payload\n"

    @pytest.mark.parametrize("threshold", ["1e39", "-1e39"])
    def test_threshold_beyond_binary32_writes_nothing_to_stderr(self, capsys, tiny, threshold):
        model = ("--svs", str(tiny / "svs.txt"), "--alpha", str(tiny / "alpha.txt"))
        want = {"1e39": "-1 non-melanoma 6.0\n", "-1e39": "+1 melanoma 6.0\n"}[threshold]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            one = run(capsys, "classify", *model, "--input", str(tiny / "test.txt"),
                      f"--th={threshold}")
            rows = run(capsys, "classify", *model, "--input", str(tiny / "ds.csv"),
                       f"--th={threshold}", "--machine")
        assert caught == []
        assert one == (0, want, "")
        assert rows[0] == 0 and rows[2] == ""

    @pytest.mark.parametrize("threshold", ["nan", "-nan", "NaN"])
    @pytest.mark.parametrize("input_name", ["dataset.csv", "test.txt"])
    def test_nan_threshold_is_one_error_line(self, capsys, gen61, threshold, input_name):
        # every compare with nan is false: the gen fixture scored 56.25% with exit 0
        code, out, err = run(
            capsys, "classify", "--svs", str(gen61 / "svs.txt"), "--alpha",
            str(gen61 / "alpha.txt"), "--input", str(gen61 / input_name), f"--th={threshold}",
        )
        assert (code, out, err) == (1, "", "error: threshold must be a number, got nan\n")

    def test_infinite_threshold_labels_every_row(self, capsys, gen61):
        model = ("--svs", str(gen61 / "svs.txt"), "--alpha", str(gen61 / "alpha.txt"))
        for threshold, label in (("inf", "-1"), ("-inf", "+1")):
            code, out, err = run(capsys, "classify", *model, "--input",
                                 str(gen61 / "dataset.csv"), f"--th={threshold}", "--machine")
            assert (code, err) == (0, "")
            assert {ln.split()[1] for ln in out.splitlines()[:-3]} == {f"predicted={label}"}

    def test_model_source_must_be_unambiguous(self, capsys, tiny, tmp_path):
        (tmp_path / "m.svml").write_text(SVMLIGHT_SMALL)
        code, _, err = run(
            capsys, "classify", "--model", str(tmp_path / "m.svml"),
            "--svs", str(tiny / "svs.txt"), "--alpha", str(tiny / "alpha.txt"),
            "--input", str(tiny / "test.txt"),
        )
        assert code == 1 and "either" in err
        code, _, err = run(capsys, "classify", "--input", str(tiny / "test.txt"))
        assert code == 1

    def test_feature_count_mismatch(self, capsys, tiny, tmp_path):
        (tmp_path / "x.txt").write_text("1 2 3\n")
        code, _, err = run(
            capsys, "classify", "--svs", str(tiny / "svs.txt"),
            "--alpha", str(tiny / "alpha.txt"), "--input", str(tmp_path / "x.txt"),
        )
        assert code == 1 and "expects" in err


class TestQuotedInput:
    """A rejected token or line is quoted in part: 40 characters plus "…"."""

    def test_dataset_as_test_instance(self, capsys, gen61):
        line = (gen61 / "dataset.csv").read_text().splitlines()[0]
        assert len(line) > 300
        code, out, err = run(
            capsys, "cosim", "--svs", str(gen61 / "svs.txt"), "--alpha", str(gen61 / "alpha.txt"),
            "--test", str(gen61 / "dataset.csv"), "--directive", "pipeline-inner",
        )
        assert (code, out) == (1, "")
        assert err == f"error: test instance line 1: bad real {line[:40] + '…'!r}\n"
        assert len(err) < 100

    def test_dataset_as_svmlight_model(self, capsys, gen61):
        line = (gen61 / "dataset.csv").read_text().splitlines()[1]
        assert len(line) > 300
        code, out, err = run(
            capsys, "classify", "--model", str(gen61 / "dataset.csv"),
            "--input", str(gen61 / "test.txt"),
        )
        assert (code, out) == (1, "")
        assert err == f"error: line 2: bad kernel type {line[:40] + '…'!r}\n"
        assert len(err) < 100

    @pytest.mark.parametrize("length", [40, 41])
    def test_cut_only_past_40_characters(self, capsys, tiny, length):
        token = "x" * length
        (tiny / "x.txt").write_text(token + "\n")
        code, _, err = run(
            capsys, "classify", "--svs", str(tiny / "svs.txt"),
            "--alpha", str(tiny / "alpha.txt"), "--input", str(tiny / "x.txt"),
        )
        want = repr(token) if length == 40 else repr("x" * 40 + "…")
        assert (code, err) == (1, f"error: test instance line 1: bad real {want}\n")


    # cells of a calibration JSON or an anchor CSV: a JSON list, an int cell of
    # 231 characters, real and directive cells of 300
    @pytest.mark.parametrize(
        "column, cell, reason",
        [
            (4, [1] * 3000, f"latency_cycles: {repr([1] * 3000)[:40]}… is not an integer"),
            (4, LONG_INT, f"latency_cycles: invalid literal for int() with base 10: {LONG_INT_Q}"),
            (5, LONG_REAL, f"bram: could not convert string to float: {LONG_REAL_Q}"),
            (2, LONG_NAME, f"directive: unknown directive {LONG_NAME_Q}"),
            (2, LONG_FACTOR, f"directive: bad factor in directive {LONG_FACTOR_Q}"),
        ],
        ids=["list", "int", "real", "directive", "factor"],
    )
    def test_long_calibration_cell(self, capsys, tmp_path, column, cell, reason):
        doc = json.loads(save_calibration(default_calibration()))
        doc["synth"][3][column] = cell
        (tmp_path / "cal.json").write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "synth", "248", "27", "pipeline-inner", "100",
            "--calibration", str(tmp_path / "cal.json"),
        )
        assert (code, out) == (2, "")
        assert err == f"error: calibration file is malformed: synth {reason}\n"

    @pytest.mark.parametrize("cell", [[1], None], ids=["list", "null"])
    def test_model_id_that_is_no_name_or_number(self, capsys, tmp_path, cell):
        # loaded before as the model '[1]' or 'none'; now an unusable file
        doc = json.loads(save_calibration(default_calibration()))
        doc["power"][0][2] = cell
        (tmp_path / "cal.json").write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "explore", "248", "27", "100", "--calibration", str(tmp_path / "cal.json"),
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: calibration file is malformed: power model_id: {cell!r} is not a model"
            " name or number\n"
        )

    @pytest.mark.parametrize(
        "column, cell, reason",
        [
            (4, "1;" * 1500, f"latency_cycles: invalid literal for int() with base 10:"
                             f" {'1;' * 20 + '…'!r}"),
            (4, LONG_INT, f"latency_cycles: invalid literal for int() with base 10: {LONG_INT_Q}"),
            (5, LONG_REAL, f"bram: could not convert string to float: {LONG_REAL_Q}"),
            (2, LONG_NAME, f"directive: unknown directive {LONG_NAME_Q}"),
            (2, LONG_FACTOR, f"directive: bad factor in directive {LONG_FACTOR_Q}"),
        ],
        ids=["text", "int", "real", "directive", "factor"],
    )
    def test_long_anchor_cell(self, capsys, tmp_path, column, cell, reason):
        # an anchor CSV is input, not a calibration file: it exits 1
        cells = ["248", "27", "pipeline-inner", "100", "14138", "19", "5", "1251", "2477"]
        cells[column] = cell
        (tmp_path / "a.csv").write_text(",".join(cells) + "\n")
        code, out, err = run(capsys, "fit", str(tmp_path / "a.csv"))
        assert (code, out) == (1, "")
        assert err == f"error: anchor csv line 1: synth {reason}\n"


def cosim_argv(gen61, *extra):
    return [
        "cosim", "--svs", str(gen61 / "svs.txt"), "--alpha", str(gen61 / "alpha.txt"),
        "--test", str(gen61 / "test.txt"), *extra,
    ]


class TestCosim:
    def test_measured_report_human(self, capsys, gen61):
        code, out, _ = run(
            capsys, *cosim_argv(gen61, "--directive", "pipeline-inner",
                                "--fpga-mhz", "250", "--arm-mhz", "250"),
        )
        assert code == 0
        for needle in (
            "pipeline-inner", "FPGA 250 MHz / ARM 250 MHz", "results match: yes",
            "hw cycles 3693 (measured_anchor), time 14.77 us",
            "sw cycles 77367, time 309.47 us",
            "sw cycles optimized 22398, time 89.59 us",
            "speedup vs plain sw: 20.95 (cycles), 20.95 (time)",
            "speedup vs optimized sw: 6.06 (cycles), 6.06 (time)",
        ):
            assert needle in out

    def test_measured_report_machine(self, capsys, gen61):
        argv = cosim_argv(gen61, "--directive", "pipeline-inner",
                          "--fpga-mhz", "250", "--arm-mhz", "250", "--machine")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        got = kv(out)
        assert got["hw_cycles"] == "3693"
        assert got["sw_cycles"] == "77367"
        assert got["sw_cycles_optimized"] == "22398"
        assert got["cycle_source"] == "measured_anchor"
        assert got["results_match"] == "1"
        assert got["hw_time_us"] == "14.77"
        assert got["sw_time_us"] == "309.47"
        assert got["cycle_speedup_plain"] == "20.95"
        assert got["cycle_speedup_optimized"] == "6.06"
        assert got["sw_timer_mhz"] == "250"
        assert got["hw_label"] == got["sw_label"]
        # byte stability
        code2, out2, _ = run(capsys, *argv)
        assert (code2, out2) == (0, out)

    def test_cross_clock_pairing(self, capsys, gen61):
        code, out, _ = run(
            capsys, *cosim_argv(gen61, "--directive", "pipeline-inner",
                                "--fpga-mhz", "250", "--arm-mhz", "666.67",
                                "--machine"),
        )
        assert code == 0
        got = kv(out)
        assert got["hw_cycles"] == "2815"
        assert got["sw_cycles"] == "28968"
        assert got["sw_cycles_optimized"] == "8431"
        assert got["sw_timer_mhz"] == "666.67"
        assert got["cycle_speedup_plain"] == "10.29"
        assert got["time_speedup_plain"] == "3.86"
        assert got["time_speedup_optimized"] == "1.12"
        assert got["hw_time_us"] == "11.26"

    def test_cross_clock_pairing_human(self, capsys, gen61):
        # the only pairing whose time speed-ups differ from its cycle speed-ups
        code, out, _ = run(
            capsys, *cosim_argv(gen61, "--directive", "pipeline-inner",
                                "--fpga-mhz", "250", "--arm-mhz", "666.67"),
        )
        assert (code, out) == (0, (
            "co-simulation: pipeline-inner, FPGA 250 MHz / ARM 666.67 MHz\n"
            "  hw: -1 non-melanoma -7.6071177\n"
            "  sw: -1 non-melanoma -7.6071177\n"
            "  results match: yes\n"
            "  hw cycles 2815 (measured_anchor), time 11.26 us\n"
            "  sw cycles 28968, time 43.45 us\n"
            "  sw cycles optimized 8431, time 12.65 us\n"
            "  speedup vs plain sw: 10.29 (cycles), 3.86 (time)\n"
            "  speedup vs optimized sw: 3.00 (cycles), 1.12 (time)\n"
        ))

    @given(*[st.floats(min_value=0, exclude_min=True, allow_infinity=False)] * 2)
    def test_pairing_reads_back_from_its_cells(self, fpga, arm):
        view = cli._View([("fpga_mhz", format_mhz(fpga)), ("arm_mhz", format_mhz(arm))])
        assert view["pairing"] == format_pairing(fpga, arm)

    @pytest.mark.parametrize("key, cell", [("hw_distance",) * 2, ("hw_label_word", "hw_label")])
    def test_template_key_without_a_cell_is_a_key_error(self, key, cell):
        with pytest.raises(KeyError, match=f"^'{cell}'$"):
            cli._View([("sw_label", "+1")])[key]

    def test_unmeasured_design_uses_estimate(self, capsys, gen61):
        code, out, _ = run(
            capsys, *cosim_argv(gen61, "--directive", "interface-only",
                                "--fpga-mhz", "250", "--arm-mhz", "250",
                                "--machine"),
        )
        assert code == 0
        got = kv(out)
        assert got["cycle_source"] == "estimated"
        assert got["hw_cycles"] == str(40885 + 61 * 27 + 1 + 61 + 27)

    def test_strict_refuses_estimates(self, capsys, gen61):
        code, out, err = run(
            capsys, *cosim_argv(gen61, "--directive", "interface-only",
                                "--fpga-mhz", "250", "--arm-mhz", "250",
                                "--strict-calibration"),
        )
        assert code == 2 and out == "" and err.startswith("error:")

    def test_unknown_clock_pairing(self, capsys, gen61):
        code, _, err = run(
            capsys, *cosim_argv(gen61, "--directive", "pipeline-inner",
                                "--fpga-mhz", "123"),
        )
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("threshold", ["1e39", "-1e39"])
    def test_threshold_beyond_binary32_writes_nothing_to_stderr(self, capsys, gen61, threshold):
        argv = cosim_argv(gen61, "--directive", "pipeline-inner", f"--th={threshold}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv, "--machine")
        assert caught == [] and (code, err) == (0, "")
        label = "-1" if threshold == "1e39" else "+1"
        assert f"hw_label={label}\nhw_distance=" in out and f"sw_label={label}\n" in out

    def test_nan_threshold_is_one_error_line(self, capsys, gen61):
        argv = cosim_argv(gen61, "--directive", "pipeline-inner", "--th=nan")
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: threshold must be a number, got nan\n")

    def test_threshold_beyond_binary32_then_refusal_is_one_error_line(self, capsys, tiny):
        # the tiny model has Fl=1, which the calibration does not cover
        argv = (
            "cosim", "--svs", str(tiny / "svs.txt"), "--alpha", str(tiny / "alpha.txt"),
            "--test", str(tiny / "test.txt"), "--directive", "pipeline-inner", "--th=1e39",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert caught == [] and (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_directive_name(self, capsys, gen61):
        code, _, err = run(
            capsys, *cosim_argv(gen61, "--directive", "warp-9"),
        )
        assert code == 1 and err.startswith("error:")


class TestSynth:
    def test_anchor_row_human(self, capsys):
        code, out, _ = run(capsys, "synth", "248", "27", "pipeline-inner", "100")
        assert code == 0
        assert out == (
            "latency throughput bram dsp ff lut validity\n"
            "14138 14139 19 5 1251 2477 anchor_exact\n"
        )

    def test_anchor_row_machine_matches_human(self, capsys):
        _, human, _ = run(capsys, "synth", "248", "27", "pipeline-inner", "100")
        _, machine, _ = run(
            capsys, "synth", "248", "27", "pipeline-inner", "100", "--machine"
        )
        got = kv(machine)
        row = human.splitlines()[1].split()
        assert row == [
            got["latency_cycles"], got["throughput_cycles"], got["bram"],
            got["dsp"], got["ff"], got["lut"], got["validity"],
        ]
        assert got["directive"] == "pipeline-inner"

    def test_fast_design_at_250(self, capsys):
        code, out, _ = run(
            capsys, "synth", "61", "27", "unroll-most", "250", "--machine"
        )
        assert code == 0
        got = kv(out)
        assert got["latency_cycles"] == "2653"
        assert got["validity"] == "anchor_exact"

    def test_directive_alias_is_canonicalized(self, capsys):
        code, out, _ = run(
            capsys, "synth", "248", "27", "pipeline_inner", "100", "--machine"
        )
        assert code == 0 and kv(out)["directive"] == "pipeline-inner"

    def test_interpolated_size(self, capsys):
        code, out, _ = run(
            capsys, "synth", "297", "27", "pipeline-inner", "100", "--machine"
        )
        assert code == 0
        got = kv(out)
        assert got["latency_cycles"] == str(56 * 297 + 250)
        assert got["validity"] == "interpolated"

    def test_single_anchor_refusal_ends_at_its_reason(self, capsys):
        code, out, err = run(capsys, "synth", "100", "27", "resource-bram", "100")
        assert (code, out) == (2, "")
        assert err == (
            "error: latency for resource-bram at 100 MHz has a single anchor at S=248;"
            " scaling to S=100 has no supporting data\n"
        )

    @pytest.mark.parametrize(
        "command, extra, prefix",
        [
            ("synth", ["unroll-partial-" + "9" * 4000], "unroll-partial"),
            ("synth", ["unroll-partial-9007199254740993"], "unroll-partial"),
            ("cosim", ["partition-cyclic-" + "7" * 3000], "partition-cyclic"),
            ("cosim", ["partition-cyclic-" + "7" * 3000, "--strict-calibration"],
             "partition-cyclic"),
        ],
        ids=["synth", "synth-2**53+1", "cosim", "cosim-strict"],
    )
    def test_factor_past_max_count_is_a_bad_directive(self, capsys, gen61, command, extra,
                                                      prefix):
        if command == "synth":
            argv = ["synth", "61", "27", extra[0], "100"]
        else:
            argv = cosim_argv(gen61, "--directive", *extra)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {prefix} needs a factor of at most 2**53\n")

    def test_single_anchor_directive_needs_its_size(self, capsys):
        code, _, err = run(capsys, "synth", "346", "27", "unroll-partial-2", "100")
        assert code == 2 and "single anchor" in err

    def test_unknown_directive(self, capsys):
        code, _, err = run(capsys, "synth", "248", "27", "warp-9", "100")
        assert code == 1 and err.startswith("error:")


class TestExplore:
    def test_front_table(self, capsys):
        code, out, _ = run(capsys, "explore", "248", "27", "100")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "directive latency throughput bram dsp ff lut validity power_w"
        assert lines[1].startswith("unroll-most 8366 8367 ")
        assert lines[1].endswith(" 1.824")
        baseline = [ln for ln in lines if ln.startswith("interface-only ")]
        assert len(baseline) == 1 and baseline[0].endswith(" -")
        latencies = [int(ln.split()[1]) for ln in lines[1:]]
        assert latencies == sorted(latencies)

    def test_front_machine(self, capsys):
        code, out, _ = run(capsys, "explore", "248", "27", "100", "--machine")
        assert code == 0
        first = out.splitlines()[0]
        assert "directive=unroll-most" in first
        assert "latency_cycles=8366" in first
        assert "power_w=1.824" in first

    def test_unmodeled_feature_count(self, capsys):
        code, _, err = run(capsys, "explore", "248", "30", "100")
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, want_code, want_err",
        [
            # no group at the regime: nothing checks the size
            (["0", "27", "300"], 2, "no directive calibrated at 300 MHz can estimate S=0, Fl=27"),
            # a group at the regime checks the size before its Fl
            (["0", "27", "100"], 1, "sv_count and feature_count must be integers in 1..2**53"),
            (["0", "30", "100"], 1, "sv_count and feature_count must be integers in 1..2**53"),
            (["248", "30", "100"], 2,
             "no directive calibrated at 100 MHz can estimate S=248, Fl=30"),
        ],
        ids=["no-group", "size", "size-before-fl", "fl"],
    )
    def test_refusal_order(self, capsys, argv, want_code, want_err):
        code, out, err = run(capsys, "explore", *argv)
        assert (code, out, err) == (want_code, "", f"error: {want_err}\n")


def anchors_csv_text() -> str:
    header = "sv_count,feature_count,directive,regime_mhz,latency_cycles,bram,dsp,ff,lut"
    rows = [
        f"{r.sv_count},{r.feature_count},{r.directive},{r.regime_mhz:g},"
        f"{r.latency_cycles},{r.bram:g},{r.dsp},{r.ff},{r.lut}"
        for r in SHIPPED_ANCHORS
    ]
    return "\n".join([header, *rows]) + "\n"


class TestFitAndCalibrationFlag:
    def test_fit_to_stdout_is_json(self, capsys, tmp_path):
        (tmp_path / "a.csv").write_text(anchors_csv_text())
        code, out, _ = run(capsys, "fit", str(tmp_path / "a.csv"))
        assert code == 0
        doc = json.loads(out)
        assert doc["version"] == 2

    def test_fitted_file_reproduces_default_estimates(self, capsys, tmp_path):
        (tmp_path / "a.csv").write_text(anchors_csv_text())
        code, out, _ = run(
            capsys, "fit", str(tmp_path / "a.csv"), "--out", str(tmp_path / "cal.json")
        )
        assert code == 0 and "fitted" in out and (tmp_path / "cal.json").exists()
        _, default_out, _ = run(capsys, "synth", "248", "27", "pipeline-inner", "100")
        _, fitted_out, _ = run(
            capsys, "synth", "248", "27", "pipeline-inner", "100",
            "--calibration", str(tmp_path / "cal.json"),
        )
        assert fitted_out == default_out

    def test_fitted_records_of_every_kind_reproduce_builtin_outputs(
        self, capsys, tmp_path, gen61
    ):
        (tmp_path / "a.csv").write_text("\n".join(csv_line(r) for r in SHIPPED_RECORDS))
        code, out, _ = run(
            capsys, "fit", str(tmp_path / "a.csv"), "--out", str(tmp_path / "cal.json")
        )
        assert code == 0 and out.endswith(" -> " + str(tmp_path / "cal.json") + "\n")
        for argv in (
            ["explore", "248", "27", "100"],
            ["explore", "61", "27", "250"],
            cosim_argv(gen61, "--directive", "pipeline-inner", "--fpga-mhz", "250",
                       "--arm-mhz", "250"),
        ):
            builtin = run(capsys, *argv)
            fitted = run(capsys, *argv, "--calibration", str(tmp_path / "cal.json"))
            assert builtin[0] == 0 and fitted == builtin

    def test_fit_on_a_model_file_quotes_part_of_its_line(self, capsys, gen61):
        # line 1 starts with a digit, so it is no header: the fault is on it
        line = (gen61 / "svs.txt").read_text().splitlines()[0]
        assert len(line) > 40
        code, out, err = run(capsys, "fit", str(gen61 / "svs.txt"))
        assert (code, out) == (1, "")
        assert err == f"error: anchor csv line 1: unknown record kind {line[:40] + '…'!r}\n"

    def test_fpga_only_calibration_cannot_cosim(self, capsys, tmp_path, gen61):
        (tmp_path / "a.csv").write_text(anchors_csv_text())
        run(capsys, "fit", str(tmp_path / "a.csv"), "--out", str(tmp_path / "cal.json"))
        code, _, err = run(
            capsys, *cosim_argv(gen61, "--directive", "pipeline-inner",
                                "--fpga-mhz", "250", "--arm-mhz", "250",
                                "--calibration", str(tmp_path / "cal.json")),
        )
        assert code == 2 and err.startswith("error:")

    def test_malformed_csv(self, capsys, tmp_path):
        (tmp_path / "a.csv").write_text("1,2,3\n")
        code, _, err = run(capsys, "fit", str(tmp_path / "a.csv"))
        assert code == 1 and err.startswith("error:")

    def test_fit_that_is_not_finite_is_one_error_line(self, capsys, tmp_path):
        rows = [
            f"{s},27,pipeline-inner,100,{56 * s + 250},{bram},5,1251,2477"
            for s, bram in ((248, "1e308"), (297, "1.7e308"), (346, "1e308"))
        ]
        (tmp_path / "a.csv").write_text("\n".join(rows) + "\n")
        code, out, err = run(
            capsys, "fit", str(tmp_path / "a.csv"), "--out", str(tmp_path / "cal.json")
        )
        assert code == 1 and out == "" and not (tmp_path / "cal.json").exists()
        assert err == (
            "error: the fitted line of bram for pipeline-inner at 100 MHz is not finite\n"
        )

    def test_non_list_calibration_kind(self, capsys, tmp_path):
        (tmp_path / "cal.json").write_text('{"version": 2, "synth": {}}')
        code, _, err = run(
            capsys, "synth", "248", "27", "pipeline-inner", "100",
            "--calibration", str(tmp_path / "cal.json"),
        )
        assert code == 2
        assert err == "error: calibration file is malformed: 'synth' must be a list of records\n"

    def test_calibration_kind_named_twice(self, capsys, tmp_path):
        # json keeps the last "synth": the two 100 MHz anchors would vanish unsaid
        (tmp_path / "a.csv").write_text(anchors_csv_text())
        _, out, _ = run(capsys, "fit", str(tmp_path / "a.csv"))
        text = out.rstrip().removesuffix("}") + ', "synth": []}'
        (tmp_path / "cal.json").write_text(text)
        code, out, err = run(
            capsys, "synth", "248", "27", "pipeline-inner", "100",
            "--calibration", str(tmp_path / "cal.json"),
        )
        assert (code, out) == (2, "")
        assert err == "error: calibration file is malformed: key 'synth' appears twice\n"

    def test_unknown_calibration_kind(self, capsys, tmp_path):
        (tmp_path / "a.csv").write_text(anchors_csv_text())
        _, out, _ = run(capsys, "fit", str(tmp_path / "a.csv"))
        doc = json.loads(out)
        doc["latency"] = []
        (tmp_path / "cal.json").write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "synth", "297", "27", "pipeline-inner", "100",
            "--calibration", str(tmp_path / "cal.json"),
        )
        assert code == 2
        assert err == "error: calibration file is malformed: unknown record kind 'latency'\n"

    @pytest.mark.parametrize(
        "edit, argv",
        [
            (lambda d: d["synth"].append(d["synth"][3][:4] + [1, 19.0, 5, 1251, 2477]),
             ["synth", "300", "27", "pipeline-inner", "100"]),
            (lambda d: d["synth"][3].__setitem__(5, float("nan")),
             ["synth", "300", "27", "pipeline-inner", "100"]),
            (lambda d: d["synth"][3].__setitem__(4, True),
             ["synth", "300", "27", "pipeline-inner", "100"]),
            (lambda d: d["synth"][3].__setitem__(4, 10**400),
             ["synth", "300", "27", "pipeline-inner", "100"]),
            (lambda d: d["arm"][0].pop(),
             ["synth", "300", "27", "pipeline-inner", "100"]),
            (lambda d: d.update(version=1),
             ["synth", "248", "27", "pipeline-inner", "100"]),
            (lambda d: [row.__setitem__(5, 0.0 if row[0] == 248 else 1e306)
                        for row in d["synth"] if row[2:4] == ["unroll-most", 100.0]],
             ["synth", "1000", "27", "unroll-most", "100"]),
        ],
        ids=["conflicting-rows", "nan-cell", "bool-cell", "huge-int-cell",
             "wrong-column-count", "version-1", "infinite-estimate"],
    )
    def test_faulty_calibration_is_one_error_line(self, capsys, tmp_path, edit, argv):
        doc = json.loads(save_calibration(default_calibration()))
        edit(doc)
        (tmp_path / "cal.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, "--calibration", str(tmp_path / "cal.json"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_zero_cosim_cycles_cannot_cosim(self, capsys, tmp_path, gen61):
        doc = json.loads(save_calibration(default_calibration()))
        for entry in doc["cosim"]:
            entry[-1] = 0
        (tmp_path / "cal.json").write_text(json.dumps(doc))
        code, _, err = run(
            capsys, *cosim_argv(gen61, "--directive", "pipeline-inner",
                                "--fpga-mhz", "250", "--arm-mhz", "250",
                                "--calibration", str(tmp_path / "cal.json")),
        )
        assert code == 2 and err == (
            "error: calibration file is malformed: cosim cycles: must be an integer in"
            " 1..2**53\n"
        )

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_anchor_is_one_error_line(self, capsys, tmp_path, cell):
        row = f"248,27,pipeline-inner,100,14138,{cell},5,1251,2477"
        (tmp_path / "a.csv").write_text(row + "\n")
        code, _, err = run(capsys, "fit", str(tmp_path / "a.csv"))
        assert code == 1 and err.startswith("error: anchor csv line 1:")
        assert err.count("\n") == 1

    def test_anchor_header_after_comments(self, capsys, tmp_path):
        (tmp_path / "a.csv").write_text("# measured anchors\n" + anchors_csv_text())
        code, out, _ = run(capsys, "fit", str(tmp_path / "a.csv"))
        assert code == 0 and json.loads(out)["version"] == 2

    @pytest.mark.parametrize("clock", ["nan", "inf", "0", "-1", "0.004"])
    def test_bad_clock_is_one_error_line(self, capsys, gen61, clock):
        # cosim and synth refuse a clock through the one check, synth.clock_key;
        # 0.004 rounds to 0.00 MHz
        want = (1, "", f"error: clock must be positive and finite, got {float(clock)!r}\n")
        assert run(capsys, "synth", "61", "27", "pipeline-inner", clock) == want
        argv = cosim_argv(gen61, "--directive", "pipeline-inner", f"--fpga-mhz={clock}")
        assert run(capsys, *argv) == want

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "huge.csv"],
            ["synth", "248", HUGE, "interface-only", "100"],
            ["synth", HUGE, "27", "pipeline-inner", "100"],
            ["explore", HUGE, "27", "100"],
        ],
        ids=["fit-s", "synth-fl", "synth-s", "explore-s"],
    )
    def test_huge_integer_is_one_error_line(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "huge.csv").write_text(f"{HUGE},27,pipeline-inner,100,14138,19,5,1251,2477\n")
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unreadable_calibration_file(self, capsys, tmp_path):
        (tmp_path / "cal.json").write_text("not json")
        code, _, err = run(
            capsys, "synth", "248", "27", "pipeline-inner", "100",
            "--calibration", str(tmp_path / "cal.json"),
        )
        assert code == 2 and err.startswith("error:")


class TestGen:
    def test_writes_consistent_fixture(self, capsys, gen61):
        for name in ("svs.txt", "alpha.txt", "test.txt", "dataset.csv"):
            assert (gen61 / name).exists()
        code, out, _ = run(
            capsys, "classify", "--svs", str(gen61 / "svs.txt"),
            "--alpha", str(gen61 / "alpha.txt"), "--input", str(gen61 / "dataset.csv"),
        )
        assert code == 0
        assert out.splitlines()[-1] == "accuracy 100.00% (32/32)"

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a" / "deep", tmp_path / "b"
        assert main(["gen", "8", "3", "42", "--out", str(a)]) == 0
        assert main(["gen", "8", "3", "42", "--out", str(b)]) == 0
        capsys.readouterr()
        for name in ("svs.txt", "alpha.txt", "test.txt", "dataset.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_human_summary(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "4", "2", "1", "--out", str(tmp_path / "g"))
        assert code == 0
        assert "model S=4 Fl=2 seed=1" in out
        assert "instances: 32" in out

    def test_machine_summary(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "gen", "4", "2", "1", "--out", str(tmp_path / "g"), "--machine"
        )
        assert code == 0
        got = kv(out)
        assert got["sv_count"] == "4" and got["instances"] == "32"

    def test_size_beyond_the_dense_limit_is_one_error_line(self, capsys, tmp_path):
        code, out, err = run(capsys, "gen", "1000000000000000", "27", "1", "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "248", "27", "pipeline-inner", "abc"],
         "argument regime_mhz: invalid float value: 'abc'"),
        (["explore", "24x", "27", "100"], "argument sv_count: invalid int value: '24x'"),
        (["synth", "248", "27", "pipeline-inner"],
         "the following arguments are required: regime_mhz"),
        (["warp", "248"], "argument command: invalid choice: 'warp'"),
        (["gen", "1", "1", "-5"], "seed must be a non-negative integer, got -5"),
    ],
    ids=["bad-float", "bad-int", "missing-argument", "unknown-command", "negative-seed"],
)
def test_usage_error_is_one_error_line_and_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: svmsoc synth [-h]")


# SHA-256 of `svmsoc [command] --help` at 80 columns, as Python 3.11's argparse
# lays it out; the refactor of the renderings kept every byte
HELP_SHA256 = {
    "": "58d3b8b9c45dea9c964da381b2be20f0cd603339877a8675836b2bfcf844d6a5",
    "classify": "764149602ff3f03dfb20f100d2fc94135c275718abeed13790900354c00623f0",
    "cosim": "cbca77e271948cf941f04ee7c193678c50f7b20dce501277e80aeaf821d5b107",
    "synth": "732907b53faafc355f6534006473d7f8524c86be15dcf5528382fb2e346d4109",
    "explore": "ee71463342425000434fce6812873ecd9fa0058dc96bb0dcd2b86ec570fed907",
    "fit": "41cf37f9d16f0d0d4984c80efc13d30a26d0d9ccab112844c5aafc86c811f36c",
    "gen": "150eab9487dc2ee15e966341e23995a48229aa4fb7222d8032e16cf48af2af09",
}


@pytest.mark.parametrize("command", list(HELP_SHA256))
def test_help_bytes_are_stable(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_SHA256[command]


def numbers(text: str) -> set:
    """The parts of text's whitespace-separated tokens that read as numbers,
    once (, ), % and : are stripped and a/b or k=v is split into its parts."""
    found = set()
    for token in text.split():
        for part in re.split("[/=]", token.strip("():%")):
            try:
                float(part)
            except ValueError:
                continue
            found.add(part)
    return found


def test_machine_carries_every_number_of_the_human_text(tmp_path, monkeypatch, capsys):
    from test_golden import TOUR  # test_golden imports this module

    monkeypatch.chdir(tmp_path)
    (tmp_path / "anchors.csv").write_text(anchors_csv_text())
    for name, argv in TOUR:
        human, machine = (run(capsys, *argv, *["--machine"] * m) for m in (False, True))
        assert human[0] == machine[0] == 0, name
        values = {token.partition("=")[2] or token for token in machine[1].split()}
        assert numbers(human[1]) <= values, name


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_console_script_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "svmsoc.cli",
         "synth", "248", "27", "pipeline-inner", "100"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert "14138 14139" in proc.stdout
