"""Fast-path ledger: what each fast path in src/svmsoc saves on its benchmark workload.

Each fast path in the package has a complete fallback, which also runs
wherever the path does not apply.  For each row of PATHS the script switches
the path off from outside the package by replacing one attribute with the
path's fallback: a function that returns the fallback's signal, a cache's
unwrapped function, a constant, or the attribute's own source with the
path's text replaced (compiled in its module and swapped in as the
function's code, so every reference to the function sees it).  It then times
the call that the path's workload in bench/workloads.py makes, on that
workload's inputs, with the path on and off in alternating rounds, at the
benchmark's sizes: S = 61, 248 and 346 with Fl = 27, and 400 x 64.  cosim and
explore are calibrated at Fl = 27 only, so their fourth size is 400 x 27, as
in their workloads.  Both sides must give the same output bytes and pass the
workload's own check.

Each line of the table gives the path, where it is (file:line), the lines it
costs (the lines the switch takes out, plus the helpers only the path uses),
the workload and size, the median time of one request with the path on and
off, and the median over the rounds of their ratio, off over on.  An explore
request is timed twice: whole (a calibration load and two explore() calls,
which sets the workload's ops_per_s) and its two explore() calls alone (its
latency_p50_ms).  After a path's lines, its verdict: it pays where a ratio
exceeds 1 plus the latency bound of BENCHMARK.json; otherwise its gain is
within what the benchmark allows a change to lose, and the path is a
candidate for deletion.  Deletions on one workload add up, so the
benchmark's paired runs of the tree without them decide.

Usage, from the repository root (numpy and the standard library only; the
inputs come from bench/workloads.py):

    python tests/fast_paths.py                # every row: about 40 s on two cores
    python tests/fast_paths.py NAME ...       # the named rows

The exit status is 1 when a row's text is not found once, or when the two
sides' outputs differ or fail the workload's check; 0 otherwise.  A row
names a module attribute that tier-1 checks exists (tests/test_structure.py).
Add a row with every new fast path, and run the script after adding one.
Not part of tier-1: pytest does not collect this file.
"""

from __future__ import annotations

import __future__
import argparse
import ast
import gc
import importlib
import inspect
import json
import os
import statistics
import sys
import tempfile
import textwrap
from pathlib import Path
from typing import Callable, NamedTuple, Union

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "svmsoc"
SEED = 1  # the inputs' seed, as bench/run.py's default
ROUNDS = 15  # alternating rounds of each line
BATCH_S = 0.02  # seconds of requests each side runs a round


class FastPath(NamedTuple):
    name: str
    file: str  # under src/svmsoc
    attr: str  # the module attribute switched off
    text: str  # the path's text, which occurs once in file
    # text's replacement in attr's source, or a function of attr's value giving its replacement
    off: Union[str, Callable]
    workloads: tuple[str, ...]  # bench workloads whose requests run the path
    helpers: tuple[str, ...] = ()  # attributes of the module that only the path uses


def returns(value):
    """A fallback's signal: the path's function returns value, whatever it is given."""
    return lambda original: (lambda *args, **kwargs: value)


def unwrapped(original):
    """A cached function's own function: the cache switched off."""
    return original.__wrapped__


PATHS = [
    # -- model_io: the C reader and its guards, and the array formatter
    FastPath(
        "dense-svmlight-body", "model_io.py", "_dense_body",
        "def _dense_body(", returns(None), ("roundtrip",), ("_index_prefixes",),
    ),
    FastPath(
        "c-text-reader", "model_io.py", "_matrix",
        "def _matrix(", returns((None, None)), ("score", "roundtrip"), ("_read",),
    ),
    FastPath(
        "long-fraction-cut", "model_io.py", "_long_fractions",
        "def _long_fractions(", returns(False), ("score", "roundtrip"),
        ("_cut", "_cut_piece", "_cut_ulps"),
    ),
    FastPath(
        "array-formatter", "model_io.py", "_ARRAY_MIN",
        "_ARRAY_MIN = ", lambda original: float("inf"), ("roundtrip", "score"),
        ("_decimal_scales", "_certified", "_digit_words", "_chunks", "_text"),
    ),
    # -- synth: the calibration build, the evaluator and the front
    FastPath(
        "directive-parse-cache", "synth.py", "_parse_directive",
        "@lru_cache(maxsize=1024)\ndef _parse_directive(", unwrapped, ("explore", "cosim"),
    ),
    FastPath(
        "whole-column-tests", "synth.py", "_WHOLE",
        "_WHOLE = {", lambda whole: dict.fromkeys(whole, lambda cells: False), ("explore",),
        ("_ints", "_amounts", "_distinct"),
    ),
    FastPath(
        "front-entry-build", "synth.py", "_entry",
        "    est, entry = object.__new__(SynthesisEstimate), object.__new__(ExploreEntry)\n"
        "    (latency, dsp, lut, ff, bram, validity), e, d = cost, est.__dict__, entry.__dict__\n"
        '    e["validity"], e["latency_cycles"], e["bram"] = validity, latency, bram\n'
        '    e["dsp"], e["ff"], e["lut"] = dsp, ff, lut\n'
        '    d["directive"], d["estimate"], d["power_w"] = config, est, power_w\n'
        "    return entry\n",
        "    latency, dsp, lut, ff, bram, validity = cost\n"
        "    est = SynthesisEstimate(validity, latency, bram, dsp, ff, lut)\n"
        "    return ExploreEntry(config, est, power_w)\n",
        ("explore",),
    ),
    # -- cli
    FastPath(
        "parser-cache", "cli.py", "_build_parser",
        "@lru_cache(maxsize=1)\ndef _build_parser(", unwrapped, ("score",),
    ),
]


# --------------------------------------------------------------------------
# switching a path off


def module_of(row: FastPath):
    return importlib.import_module(f"svmsoc.{Path(row.file).stem}")


def edited_code(row: FastPath, function):
    """function's code with the row's text replaced by its fallback, compiled in its module."""
    lines, first = inspect.getsourcelines(function)
    source = "".join(lines)
    if source.count(row.text) != 1:
        raise LookupError(f"{row.attr}'s source holds its text {source.count(row.text)} times")
    # blank lines keep the line numbers of the file in tracebacks
    source = "\n" * (first - 1) + textwrap.dedent(source.replace(row.text, row.off))
    code = compile(source, function.__code__.co_filename, "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = dict(vars(module_of(row)))
    exec(code, namespace)
    return namespace[function.__name__].__code__


def switch_off(row: FastPath) -> Callable[[], None]:
    """Switch the row's path off; the function returned switches it on again."""
    owner = module_of(row)
    original = getattr(owner, row.attr)
    if isinstance(row.off, str):  # every reference to the function runs the fallback
        code = original.__code__
        original.__code__ = edited_code(row, original)
        return lambda: setattr(original, "__code__", code)
    setattr(owner, row.attr, row.off(original))
    return lambda: setattr(owner, row.attr, original)


def _span(tree: ast.Module, name: str) -> int:
    """The lines of the top-level definition or assignment of name in a module's tree."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            return node.end_lineno - first + 1
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node.end_lineno - node.lineno + 1
    raise LookupError(f"no definition of {name}")


def locate(row: FastPath) -> tuple[str, int]:
    """Where the row's path is, as file:line, and the lines it costs.

    Raises LookupError when its text does not occur once in its file.
    """
    text = (PACKAGE / row.file).read_text()
    if text.count(row.text) != 1:
        raise LookupError(f"its text occurs {text.count(row.text)} times in {row.file}")
    line = text[: text.index(row.text)].count("\n") + 1
    tree = ast.parse(text)
    if isinstance(row.off, str):
        own = row.text.count("\n") - row.off.count("\n")
    elif row.off is unwrapped:  # the cache's decorator
        own = 1
    else:
        own = _span(tree, row.attr)
    return f"{row.file}:{line}", own + sum(_span(tree, h) for h in row.helpers)


# --------------------------------------------------------------------------
# timing a workload's request with the path on and off


def sizes(workload: str) -> list[tuple[int, int]]:
    import workloads

    if workload in ("cosim", "explore"):  # calibrated at Fl = 27 only
        return [(s, workloads.CALIBRATED_FL) for s, _ in workloads.SIZES]
    return list(workloads.SIZES)


def request(workload: str, sv_count: int, feature_count: int, workdir: Path):
    """run and verify for one request of a bench workload at S x Fl, on one set of inputs.

    run() makes the request and returns its outputs and its two times: the
    whole request, and its latencies summed.  verify(outputs) gives their
    fingerprint bytes and the workload's check's problems.  A cosim request
    is one cosim() call per directive the workload rotates through.
    """
    import numpy as np
    import svmsoc
    import workloads

    rng = np.random.default_rng(SEED)
    w = workloads.WORKLOADS[workload](rng, workdir, svmsoc.SHIPPED_ANCHORS)
    if workload == "cosim":
        general = sorted({i.directive for i in w.items if i.clocks == workloads.COSIM_CLOCKS})
        w.items = [
            workloads.CosimItem(j, sv_count, d, workloads.COSIM_CLOCKS, "estimated", None)
            for j, d in enumerate(general)
        ]
    elif workload == "explore":
        w.items = [sv_count]
    else:
        w.items = [i for i in w.items if (i.sv_count, i.feature_count) == (sv_count, feature_count)]
    w.setup(svmsoc, rng)

    def run():
        outs, busy, latency = [], 0.0, 0.0
        for item in w.items:
            out, latencies, spent, _ = w.step(svmsoc, item)
            outs.append(out)
            busy += spent
            latency += sum(latencies)
        return outs, (busy, latency)

    def verify(outs) -> tuple[bytes, list[str]]:
        fingerprint = b"".join(w.fingerprint(i, out) for i, out in zip(w.items, outs))
        return fingerprint, [p for i, out in zip(w.items, outs) for p in w.check(svmsoc, i, out)]

    return run, verify


def measure(row: FastPath, workload: str, sv_count: int, feature_count: int):
    """The median times (whole, latencies) of one request with the path on and off, their
    ratios, and the faults found: outputs that differ between the two sides or fail the
    workload's check.

    Each round runs a batch of requests on each side, the first side alternating.  A
    ratio is the median over the rounds of the round's off median over its on median, so
    the machine's speed, which drifts over seconds on a shared host, cancels in each round.
    """
    with tempfile.TemporaryDirectory(prefix="svmsoc-paths-") as tmp:
        run, verify = request(workload, sv_count, feature_count, Path(tmp))
        gc.collect()
        outs_on, (first, _) = run()
        switch_on = switch_off(row)
        try:
            outs_off, _ = run()
        finally:
            switch_on()
        (on_bytes, on_problems), (off_bytes, off_problems) = verify(outs_on), verify(outs_off)
        faults = on_problems + [f"switched off: {p}" for p in off_problems]
        if on_bytes != off_bytes:
            faults.append("the outputs differ with the path switched off")
        repeats = max(1, round(BATCH_S / max(first, 1e-6)))
        times: dict[bool, list] = {True: [], False: []}
        ratios = []
        for r in range(ROUNDS):
            batch = {}
            for fast in (True, False) if r % 2 == 0 else (False, True):
                switch_on = (lambda: None) if fast else switch_off(row)
                try:
                    batch[fast] = [run()[1] for _ in range(repeats)]
                finally:
                    switch_on()
                times[fast] += batch[fast]
            on, off = (map(statistics.median, zip(*batch[side])) for side in (True, False))
            ratios.append([b / a for a, b in zip(on, off)])
    on, off = (tuple(map(statistics.median, zip(*times[side]))) for side in (True, False))
    return on, off, tuple(map(statistics.median, zip(*ratios))), faults


def latency_bound() -> float:
    """The ratio of request times past which the benchmark counts a loss: 1 + the p50 bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return 1 + next(m["bound"] for m in spec["end_to_end"] if m["name"] == "latency_p50_ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="rows to run (default: all)")
    args = parser.parse_args(argv)
    known = {row.name: row for row in PATHS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown rows: {', '.join(unknown)}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one thread, as bench/run.py runs
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    importlib.import_module("svmsoc.cli")
    bound = latency_bound()
    bad = 0
    print(f"{'path':26} {'where':18} {'lines':>5} {'workload':10} {'size':8}"
          f" {'on us':>9} {'off us':>9} {'ratio':>6}", flush=True)
    for row in [known[n] for n in args.names] or PATHS:
        try:
            where, lines = locate(row)
        except LookupError as exc:
            print(f"{row.name:26} stale: {exc}")
            bad += 1
            continue
        worst = 0.0
        for workload in row.workloads:
            metrics = [(workload, 0)] + ([("explore()", 1)] if workload == "explore" else [])
            for s, fl in sizes(workload):
                on, off, ratios, faults = measure(row, workload, s, fl)
                for label, i in metrics:
                    ratio = ratios[i]
                    worst = max(worst, ratio)
                    print(f"{row.name:26} {where:18} {lines:5d} {label:10} {f'{s}x{fl}':8}"
                          f" {on[i] * 1e6:9.1f} {off[i] * 1e6:9.1f} {ratio:6.3f}", flush=True)
                for fault in faults:
                    print(f"{row.name:26} FAULT at {s}x{fl} on {workload}: {fault}")
                bad += bool(faults)
        verdict = "pays" if worst > bound else "within the bound: a deletion candidate"
        print(f"{row.name}: largest ratio {worst:.3f} against {bound:.2f}; {verdict}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
