"""Command-line front end.

Subcommands: classify, cosim, synth, explore, fit, gen.  Exit codes are
0 on success, 1 for input problems (a bad, missing or unknown command-line
argument, a missing file, unreadable or malformed model and data files,
bad dimensions, unknown directive names), 2 when a calibration file is
unusable or a cost-model lookup has no calibration to stand on.  Every
failure prints one "error:" line on stderr and nothing on stdout.

Each command builds one list of (key, text) cells, formatting each value
once.  Every command takes --machine for their key=value lines, which are
byte-stable for identical inputs; the human text fills one template per
command from the same cells, so both carry the same formatted numbers.
Label +1 is reported as melanoma, -1 as non-melanoma.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections.abc import Iterable
from functools import lru_cache
from itertools import count
from pathlib import Path
from typing import NamedTuple

from .driver import ClockPair, CosimReport, batch_classify, cosim, run_software_reference
from .errors import CalibrationError, SvmSocError
from .model_io import (
    MAX_DENSE_VALUES,
    LabeledDataset,
    emit_dataset,
    emit_native_model,
    emit_test_instance,
    format_real,
    format_reals,
    load_dataset,
    make_synthetic,
    parse_native_model,
    parse_svmlight_model,
    parse_test_instance,
)
from .synth import (
    CalibrationSet,
    DirectiveConfig,
    default_calibration,
    estimate_design,
    explore,
    fit_calibration,
    format_mhz,
    format_pairing,
    load_calibration,
    parse_anchor_csv,
    save_calibration,
)

_SIGN = {1: "+1", -1: "-1"}  # a label as the outputs print it
_WORDS = {"+1": "melanoma", "-1": "non-melanoma"}  # a printed label as the human text words it
MAX_INPUT_BYTES = MAX_DENSE_VALUES * 32  # the dense limit's values, 32 bytes of text each


def _fmt_2dp(v: float) -> str:
    """A time in us, a speed-up or a percentage, to two decimals."""
    return f"{v:.2f}"


def _read(path: str, undecodable=SvmSocError) -> str:
    """A file's text, refused past MAX_INPUT_BYTES; text that is not UTF-8 raises undecodable."""
    try:
        with open(path, "rb") as f:  # a read allocates all it asks for: first ask for the size
            size = os.fstat(f.fileno()).st_size
            data = f.read(size + 1) if size <= MAX_INPUT_BYTES else b""  # a larger one unread
            if len(data) == size + 1:  # longer than its size says (a pipe or device says 0)
                data += f.read(MAX_INPUT_BYTES - size)  # one byte past the cap tells
        if max(size, len(data)) > MAX_INPUT_BYTES:
            error, why = SvmSocError, f"larger than {MAX_INPUT_BYTES} bytes"
        else:
            return data.decode()
    except OSError as exc:
        error, why = SvmSocError, exc.strerror or exc
    except UnicodeDecodeError as exc:
        error, why = undecodable, exc
    shown = path if path.isprintable() else repr(path)  # a line break: still one line
    raise error(f"cannot read {shown}: {why}")


def _load_model(args):
    if args.model and (args.svs or args.alpha):
        raise SvmSocError("pass either --model or --svs/--alpha, not both")
    if args.model:
        return parse_svmlight_model(_read(args.model))
    if args.svs and args.alpha:
        return parse_native_model(_read(args.svs), _read(args.alpha))
    raise SvmSocError("pass --model, or both --svs and --alpha")


def _load_calibration(args) -> CalibrationSet:
    if getattr(args, "calibration", None):
        return load_calibration(_read(args.calibration, CalibrationError))
    return default_calibration()


# --------------------------------------------------------------------------
# rendering

class _Output(NamedTuple):
    """A command's (key, text) cells, each value formatted once, and its human
    template over their keys; a text is a str, or an int that prints as itself.
    Rows, if any, come first: their keys and a tuple of texts each, which the
    human template places at {rows}, each through row_human."""

    cells: list
    human: str
    keys: tuple = ()
    rows: Iterable = ()
    row_human: str = ""


class _View(dict):
    """Cells by key, as a human template reads them.  The words that only the
    human text prints derive here from their cells: <label key>_word, match
    (from results_match) and pairing (from fpga_mhz and arm_mhz)."""

    def __missing__(self, key):
        if key == "pairing":  # format_mhz's text reads back to the same text
            return format_pairing(float(self["fpga_mhz"]), float(self["arm_mhz"]))
        if key == "match":
            return "yes" if self["results_match"] else "NO"
        if key.endswith("_word"):
            return _WORDS[self[key.removesuffix("_word")]]
        raise KeyError(key)


def _render(out: _Output | str, machine: bool) -> str:
    """A command's output as text: a str as it is; under --machine each row one
    line of its k=v cells, then each cell a k=v line; else the human template."""
    if isinstance(out, str):
        return out
    if machine:
        line = " ".join(f"{k}=%s" for k in out.keys) + "\n"  # one format a row
        cells = "".join(f"{k}={v}\n" for k, v in out.cells)
        return "".join(map(line.__mod__, out.rows)) + cells
    rows = "".join(out.row_human.format_map(_View(zip(out.keys, row))) for row in out.rows)
    return out.human.format_map(_View(out.cells, rows=rows))


def _table(keys) -> tuple[str, str]:
    """A human table of these keys' cells: its header (a cycle count's key
    without its _cycles), and the template of a row."""
    header = " ".join(key.removesuffix("_cycles") for key in keys)
    return header + "\n", " ".join(f"{{{key}}}" for key in keys) + "\n"


# --------------------------------------------------------------------------
# classify

def _check_threshold(args) -> None:
    # an IEEE compare with nan is false, so a nan threshold would label every row -1
    if math.isnan(args.th):
        raise SvmSocError(f"threshold must be a number, got {args.th}")


# blank lines, then the first non-blank line up to a line break as
# str.splitlines ends lines; every such break is whitespace to str.isspace
_FIRST_LINE = re.compile(r"\s*[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")


def cmd_classify(args) -> _Output:
    _check_threshold(args)
    model = _load_model(args)
    text = _read(args.input)
    if "," in _FIRST_LINE.match(text)[0]:  # a labelled CSV
        return _classify_dataset(model, load_dataset(text), args)
    instance = parse_test_instance(text, model.feature_count)
    res = run_software_reference(model, instance, args.th)
    cells = [("label", _SIGN[res.label]), ("distance", format_real(res.distance))]
    return _Output(cells, "{label} {label_word} {distance}\n")


def _classify_dataset(model, dataset: LabeledDataset, args) -> _Output:
    report = batch_classify(model, dataset, args.th)
    sign = _SIGN.__getitem__
    rows = zip(count(1), map(sign, report.predictions), map(sign, report.labels),
               format_reals(report.distances))
    cells = [("correct", report.correct), ("total", report.total),
             ("accuracy_percent", _fmt_2dp(report.accuracy_percent))]
    return _Output(cells, "{rows}accuracy {accuracy_percent}% ({correct}/{total})\n",
                   ("row", "predicted", "true", "distance"), rows,
                   "row {row}: {predicted} {predicted_word} {distance} (true {true})\n")


# --------------------------------------------------------------------------
# cosim

_COSIM_HUMAN = (
    "co-simulation: {directive}, {pairing}\n"
    "  hw: {hw_label} {hw_label_word} {hw_distance}\n"
    "  sw: {sw_label} {sw_label_word} {sw_distance}\n"
    "  results match: {match}\n"
    "  hw cycles {hw_cycles} ({cycle_source}), time {hw_time_us} us\n"
    "  sw cycles {sw_cycles}, time {sw_time_us} us\n"
    "  sw cycles optimized {sw_cycles_optimized}, time {sw_opt_time_us} us\n"
    "  speedup vs plain sw: {cycle_speedup_plain} (cycles), {time_speedup_plain} (time)\n"
    "  speedup vs optimized sw: {cycle_speedup_optimized} (cycles),"
    " {time_speedup_optimized} (time)\n"
)


def cmd_cosim(args) -> _Output:
    _check_threshold(args)
    model = _load_model(args)
    instance = parse_test_instance(_read(args.test), model.feature_count)
    rep = cosim(model, instance, args.directive, ClockPair(args.fpga_mhz, args.arm_mhz), args.th,
                calibration=_load_calibration(args), strict=args.strict_calibration)
    hw_d, sw_d = format_reals([rep.hw.distance, rep.sw.distance])
    cells = [
        ("directive", rep.directive.name),
        ("fpga_mhz", format_mhz(rep.clocks.fpga_mhz)),
        ("arm_mhz", format_mhz(rep.clocks.arm_mhz)),
        ("hw_label", _SIGN[rep.hw.label]),
        ("hw_distance", hw_d),
        ("sw_label", _SIGN[rep.sw.label]),
        ("sw_distance", sw_d),
        ("results_match", int(rep.results_match)),
        ("cycle_source", rep.cycle_source),
        ("hw_cycles", rep.hw_cycles),
        ("sw_cycles", rep.sw_cycles),
        ("sw_cycles_optimized", rep.sw_cycles_optimized),
        ("sw_timer_mhz", format_mhz(rep.sw_timer_mhz)),
        ("hw_time_us", _fmt_2dp(rep.hw_time_us)),
        ("sw_time_us", _fmt_2dp(rep.sw_time_us)),
        ("sw_opt_time_us", _fmt_2dp(rep.sw_opt_time_us)),
        ("cycle_speedup_plain", _fmt_2dp(rep.cycle_speedup_plain)),
        ("cycle_speedup_optimized", _fmt_2dp(rep.cycle_speedup_optimized)),
        ("time_speedup_plain", _fmt_2dp(rep.time_speedup_plain)),
        ("time_speedup_optimized", _fmt_2dp(rep.time_speedup_optimized)),
    ]
    return _Output(cells, _COSIM_HUMAN)


# --------------------------------------------------------------------------
# synth / explore

# a design estimate's keys, in the order every row prints them
_ESTIMATE_KEYS = ("latency_cycles", "throughput_cycles", "bram", "dsp", "ff", "lut", "validity")


def _estimate_texts(est) -> tuple:
    """A design estimate's texts, one for each of _ESTIMATE_KEYS."""
    return (est.latency_cycles, est.throughput_cycles, f"{est.bram:g}", est.dsp, est.ff,
            est.lut, est.validity)


def cmd_synth(args) -> _Output:
    directive = DirectiveConfig.parse(args.directive)
    est = estimate_design(args.sv_count, args.feature_count, directive, args.regime_mhz,
                          calibration=_load_calibration(args))
    cells = [("directive", directive.name), ("regime_mhz", format_mhz(args.regime_mhz)),
             ("sv_count", args.sv_count), ("feature_count", args.feature_count),
             *zip(_ESTIMATE_KEYS, _estimate_texts(est))]
    return _Output(cells, "".join(_table(_ESTIMATE_KEYS)))


def cmd_explore(args) -> _Output:
    front = explore(args.sv_count, args.feature_count, args.regime_mhz,
                    calibration=_load_calibration(args))
    keys = ("directive", *_ESTIMATE_KEYS, "power_w")
    rows = [
        (entry.directive.name, *_estimate_texts(entry.estimate),
         "-" if entry.power_w is None else f"{entry.power_w:.3f}")
        for entry in front
    ]
    header, row = _table(keys)
    return _Output([], header + "{rows}", keys, rows, row)


# --------------------------------------------------------------------------
# fit / gen

def cmd_fit(args) -> _Output | str:
    cal = fit_calibration(parse_anchor_csv(_read(args.anchors)))
    text = save_calibration(cal)
    if not args.out:
        return text
    Path(args.out).write_text(text)
    entries = len(cal.dsp)  # one per (directive, regime) synthesis group
    return _Output([("entries", entries), ("out", args.out)],
                   "fitted {entries} directive/regime entries -> {out}\n")


def cmd_gen(args) -> _Output:
    model, dataset = make_synthetic(args.sv_count, args.feature_count, args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    svs_text, alpha_text = emit_native_model(model)
    files = {
        "svs.txt": svs_text,
        "alpha.txt": alpha_text,
        "test.txt": emit_test_instance(dataset.instances[0]),
        "dataset.csv": emit_dataset(dataset),
    }
    for name, text in files.items():
        (outdir / name).write_text(text)
    cells = [("sv_count", model.sv_count), ("feature_count", model.feature_count),
             ("seed", args.seed), ("instances", len(dataset)), ("out", str(outdir))]
    human = ("model S={sv_count} Fl={feature_count} seed={seed}\n"
             "wrote %s in {out}\ninstances: {instances}\n")
    return _Output(cells, human % " ".join(files))  # the names are fixed text, no braces


# --------------------------------------------------------------------------
# parser

def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", help="SVM-Light model file (linear kernel)")
    p.add_argument("--svs", help="support-vector matrix text file")
    p.add_argument("--alpha", help="bias plus alpha*y weights text file")


def _add_common(p: argparse.ArgumentParser, calibration=False):
    p.add_argument("--machine", action="store_true", help="key=value output")
    if calibration:
        p.add_argument("--calibration", help="calibration JSON (default: built-in)")


class _UsageError(Exception):
    """A command line the parser refuses."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (and, through add_subparsers, its subparsers) whose
    usage errors raise _UsageError instead of printing usage and exiting 2."""

    def error(self, message):
        raise _UsageError(message)


# the cache pays on score: x1.86 at 61x27 (tests/fast_paths.py)
@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="svmsoc",
        description="Linear-SVM streaming accelerator simulator and cost models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify an instance or a labeled CSV")
    _add_model_flags(p)
    p.add_argument("--input", required=True, help="test vector or labeled CSV")
    p.add_argument("--th", type=float, default=0.0, help="decision threshold")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cosim", help="co-simulate hardware and software paths")
    _add_model_flags(p)
    p.add_argument("--test", required=True, help="test vector file")
    p.add_argument("--directive", required=True, help="e.g. pipeline-inner")
    p.add_argument("--fpga-mhz", type=float, default=100.0)
    p.add_argument("--arm-mhz", type=float, default=666.67)
    p.add_argument("--th", type=float, default=0.0)
    p.add_argument(
        "--strict-calibration",
        action="store_true",
        help="refuse estimated cycle counts",
    )
    _add_common(p, calibration=True)
    p.set_defaults(func=cmd_cosim)

    p = sub.add_parser("synth", help="latency/resource estimate for one directive")
    p.add_argument("sv_count", type=int)
    p.add_argument("feature_count", type=int)
    p.add_argument("directive")
    p.add_argument("regime_mhz", type=float)
    _add_common(p, calibration=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("explore", help="Pareto front over all calibrated directives")
    p.add_argument("sv_count", type=int)
    p.add_argument("feature_count", type=int)
    p.add_argument("regime_mhz", type=float)
    _add_common(p, calibration=True)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("fit", help="fit a calibration file from an anchor CSV")
    p.add_argument("anchors", help="anchor CSV path")
    p.add_argument("--out", help="write calibration JSON here (default: stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("gen", help="generate a synthetic model and dataset")
    p.add_argument("sv_count", type=int)
    p.add_argument("feature_count", type=int)
    p.add_argument("seed", type=int)
    p.add_argument("--out", default=".", help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        out = _render(args.func(args), args.machine)
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, SvmSocError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
