"""Command-line front end.

Subcommands: classify, cosim, synth, explore, fit, gen.  Exit codes are
0 on success, 1 for input problems (a bad, missing or unknown command-line
argument, a missing file, unreadable or malformed model and data files,
bad dimensions, unknown directive names), 2 when a calibration file is
unusable or a cost-model lookup has no calibration to stand on.  Every
failure prints one "error:" line on stderr and nothing on stdout.

Every command takes --machine for key=value output; those renderings are
byte-stable for identical inputs and carry the same formatted numbers as
the human text.  Label +1 is reported as melanoma, -1 as non-melanoma.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from functools import lru_cache
from itertools import count
from pathlib import Path

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

_WORDS = {1: "melanoma", -1: "non-melanoma"}
_SIGN = {1: "+1", -1: "-1"}  # a label as the outputs print it
MAX_INPUT_BYTES = MAX_DENSE_VALUES * 32  # the dense limit's values, 32 bytes of text each


def _fmt_2dp(v: float) -> str:
    """A time in us, a speed-up or a percentage, to two decimals."""
    return f"{v:.2f}"


def _fmt_bram(v: float) -> str:
    return f"{v:g}"


def _read(path: str, undecodable=SvmSocError) -> str:
    """A file's text, refused past MAX_INPUT_BYTES; text that is not UTF-8 raises undecodable."""
    try:
        with open(path, "rb") as f:  # a read allocates all it asks for: first ask for the size
            size = os.fstat(f.fileno()).st_size
            data = f.read(size + 1) if size <= MAX_INPUT_BYTES else b""  # a larger one unread
            if len(data) == size + 1:  # longer than its size says (a pipe or device says 0)
                data += f.read(MAX_INPUT_BYTES - size)  # one byte past the cap tells
        if max(size, len(data)) > MAX_INPUT_BYTES:
            raise SvmSocError(f"cannot read {path}: larger than {MAX_INPUT_BYTES} bytes")
        return data.decode()
    except OSError as exc:
        raise SvmSocError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise undecodable(f"cannot read {path}: {exc}") from None


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


def _kv(pairs) -> str:
    return "".join(f"{k}={v}\n" for k, v in pairs)


# --------------------------------------------------------------------------
# classify

def _check_threshold(args) -> None:
    # an IEEE compare with nan is false, so a nan threshold would label every row -1
    if math.isnan(args.th):
        raise SvmSocError(f"threshold must be a number, got {args.th}")


# blank lines, then the first non-blank line up to a line break as
# str.splitlines ends lines; every such break is whitespace to str.isspace
_FIRST_LINE = re.compile(r"\s*[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")


def cmd_classify(args) -> str:
    _check_threshold(args)
    model = _load_model(args)
    text = _read(args.input)
    if "," in _FIRST_LINE.match(text)[0]:  # a labelled CSV
        return _classify_dataset(model, load_dataset(text), args)
    instance = parse_test_instance(text, model.feature_count)
    res = run_software_reference(model, instance, args.th)
    dist = format_real(res.distance)
    if args.machine:
        return _kv([("label", _SIGN[res.label]), ("distance", dist)])
    return f"{_SIGN[res.label]} {_WORDS[res.label]} {dist}\n"


def _classify_dataset(model, dataset: LabeledDataset, args) -> str:
    report = batch_classify(model, dataset, args.th)
    rows = zip(count(1), report.predictions, report.labels, format_reals(report.distances))
    acc, correct, total = _fmt_2dp(report.accuracy_percent), report.correct, report.total
    if args.machine:
        lines = [
            f"row={i} predicted={_SIGN[p]} true={_SIGN[t]} distance={d}" for i, p, t, d in rows
        ]
        lines += [f"correct={correct}", f"total={total}", f"accuracy_percent={acc}"]
    else:
        lines = [f"row {i}: {_SIGN[p]} {_WORDS[p]} {d} (true {_SIGN[t]})" for i, p, t, d in rows]
        lines.append(f"accuracy {acc}% ({correct}/{total})")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# cosim

def _render_cosim(rep: CosimReport, machine: bool) -> str:
    hw_d, sw_d = format_reals([rep.hw.distance, rep.sw.distance])
    if machine:
        return _kv(
            [
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
        )
    match = "yes" if rep.results_match else "NO"
    return (
        f"co-simulation: {rep.directive.name},"
        f" {format_pairing(rep.clocks.fpga_mhz, rep.clocks.arm_mhz)}\n"
        f"  hw: {_SIGN[rep.hw.label]} {_WORDS[rep.hw.label]} {hw_d}\n"
        f"  sw: {_SIGN[rep.sw.label]} {_WORDS[rep.sw.label]} {sw_d}\n"
        f"  results match: {match}\n"
        f"  hw cycles {rep.hw_cycles} ({rep.cycle_source}),"
        f" time {_fmt_2dp(rep.hw_time_us)} us\n"
        f"  sw cycles {rep.sw_cycles}, time {_fmt_2dp(rep.sw_time_us)} us\n"
        f"  sw cycles optimized {rep.sw_cycles_optimized},"
        f" time {_fmt_2dp(rep.sw_opt_time_us)} us\n"
        f"  speedup vs plain sw: {_fmt_2dp(rep.cycle_speedup_plain)} (cycles),"
        f" {_fmt_2dp(rep.time_speedup_plain)} (time)\n"
        f"  speedup vs optimized sw: {_fmt_2dp(rep.cycle_speedup_optimized)} (cycles),"
        f" {_fmt_2dp(rep.time_speedup_optimized)} (time)\n"
    )


def cmd_cosim(args) -> str:
    _check_threshold(args)
    model = _load_model(args)
    instance = parse_test_instance(_read(args.test), model.feature_count)
    rep = cosim(
        model,
        instance,
        args.directive,
        ClockPair(args.fpga_mhz, args.arm_mhz),
        args.th,
        calibration=_load_calibration(args),
        strict=args.strict_calibration,
    )
    return _render_cosim(rep, args.machine)


# --------------------------------------------------------------------------
# synth / explore

def _estimate_cells(est) -> list[tuple[str, object]]:
    """A design estimate's (key, text) cells, in the order every row prints them."""
    return [
        ("latency_cycles", est.latency_cycles),
        ("throughput_cycles", est.throughput_cycles),
        ("bram", _fmt_bram(est.bram)),
        ("dsp", est.dsp),
        ("ff", est.ff),
        ("lut", est.lut),
        ("validity", est.validity),
    ]


def _table(rows) -> str:
    """Rows of (key, text) cells as human text: a header of the keys (a cycle
    count's without its _cycles), then each row's texts."""
    header = " ".join(key.removesuffix("_cycles") for key, _ in rows[0])
    return header + "\n" + "".join(" ".join(str(v) for _, v in row) + "\n" for row in rows)


def cmd_synth(args) -> str:
    directive = DirectiveConfig.parse(args.directive)
    est = estimate_design(
        args.sv_count,
        args.feature_count,
        directive,
        args.regime_mhz,
        calibration=_load_calibration(args),
    )
    cells = _estimate_cells(est)
    if args.machine:
        return _kv(
            [
                ("directive", directive.name),
                ("regime_mhz", format_mhz(args.regime_mhz)),
                ("sv_count", args.sv_count),
                ("feature_count", args.feature_count),
                *cells,
            ]
        )
    return _table([cells])


def cmd_explore(args) -> str:
    front = explore(
        args.sv_count,
        args.feature_count,
        args.regime_mhz,
        calibration=_load_calibration(args),
    )
    rows = [
        [
            ("directive", entry.directive.name),
            *_estimate_cells(entry.estimate),
            ("power_w", "-" if entry.power_w is None else f"{entry.power_w:.3f}"),
        ]
        for entry in front
    ]
    if args.machine:
        return "".join(" ".join(f"{k}={v}" for k, v in row) + "\n" for row in rows)
    return _table(rows)


# --------------------------------------------------------------------------
# fit / gen

def cmd_fit(args) -> str:
    rows = parse_anchor_csv(_read(args.anchors))
    cal = fit_calibration(rows)
    text = save_calibration(cal)
    if args.out:
        Path(args.out).write_text(text)
        entries = len(cal.dsp)  # one per (directive, regime) synthesis group
        if args.machine:
            return _kv([("entries", entries), ("out", args.out)])
        return f"fitted {entries} directive/regime entries -> {args.out}\n"
    return text


def cmd_gen(args) -> str:
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
    if args.machine:
        return _kv(
            [
                ("sv_count", model.sv_count),
                ("feature_count", model.feature_count),
                ("seed", args.seed),
                ("instances", len(dataset)),
                ("out", str(outdir)),
            ]
        )
    return (
        f"model S={model.sv_count} Fl={model.feature_count} seed={args.seed}\n"
        f"wrote {' '.join(files)} in {outdir}\n"
        f"instances: {len(dataset)}\n"
    )


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
        out = args.func(args)
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
