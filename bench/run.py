#!/usr/bin/env python3
"""Host-side benchmark of svmsoc: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload cosim --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

Workloads: score, cosim, explore, roundtrip (see bench/README.md).  Each
workload runs in its own process as a closed loop with one caller.  With
--trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics, taken from spans
around every public function of the five layers, and a `layer_table` line
before it splits them by size.  The program is imported from ./src of the
checkout the script sits in, never from site-packages.
"""

from __future__ import annotations

import os

# One caller, no extra threads: keep numpy's BLAS single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
import typing
from array import array
from contextlib import nullcontext
from operator import add
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import LAYERS, Tracer, instrument
from workloads import SIZES, WORKLOADS, size_tag

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Default seed, its output digests and the per-layer size table.
BASELINE = json.loads((BENCH / "baseline.json").read_text())
DEFAULT_SEED = BASELINE["default_seed"]
DEFAULT_SECONDS = 30  # BENCHMARK.json run_seconds
# The yardstick loop's rounds, its time at the reference speed, and the
# least wall time between two of its readings.
YARDSTICK_ROUNDS = 2000
YARDSTICK_S = 0.003
YARDSTICK_EVERY_S = 0.05
# Benchmark spans; each is named `<kind>@<size tag>` after the request's size.
REQUEST, CHECK, PROBE = "bench.request", "bench.check", "bench.probe"


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# --------------------------------------------------------------------------
# set-up


def import_program():
    """Import svmsoc afresh from ./src, dropping any copy imported before.

    typing's caches are cleared first: they keep the `Union[...]` objects of
    a module, and through them the module's classes, out of reach of the
    cycle collector, so every dropped copy would stay in memory.
    """
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    for name in [m for m in sys.modules if m == "svmsoc" or m.startswith("svmsoc.")]:
        del sys.modules[name]
    package = importlib.import_module("svmsoc")
    importlib.import_module("svmsoc.cli")
    return package


def load_program(workload, rng):
    """Import svmsoc afresh, warm its calibration, build one pass's objects.

    Returns the package and the time of each program call, in seconds; the
    benchmark's own input generation is not counted.
    """
    t0 = perf_counter()
    package = import_program()
    t1 = perf_counter()
    package.default_calibration()
    t2 = perf_counter()
    times = workload.setup(package, rng)
    times.update(import_svmsoc=t1 - t0, default_calibration=t2 - t1)
    times["total"] = sum(times.values())
    return package, times


def check_source():
    """The package from ./src; its shipped anchor rows feed the workloads."""
    if not (SRC / "svmsoc" / "__init__.py").is_file():
        fail(f"no svmsoc sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    package = import_program()
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        fail(f"svmsoc was imported from {package.__file__}, not from {SRC}")
    return package


# --------------------------------------------------------------------------
# the timed loop


class Yardstick:
    """A fixed loop of the benchmark's own, timed between requests.

    On a shared host the speed of one thread drifts by up to 1.8x over
    seconds to minutes, and the program and this loop slow down together.
    Every program time is scaled by YARDSTICK_S over the mean of the two
    readings around it, so it reads as at the reference speed, at which the
    loop takes YARDSTICK_S.  The loop touches no program code, so a change
    to the program cannot move it.
    """

    def __init__(self):
        self.reading()  # warm-up
        self.last = self.reading()
        self.at = perf_counter()
        self.readings = array("d")

    @staticmethod
    def reading() -> float:
        f32 = np.float32
        acc, x, half = f32(0.0), f32(1.0001), f32(0.5)
        t0 = perf_counter()
        for _ in range(YARDSTICK_ROUNDS):
            acc = acc * x + half
            float(repr(float(acc)))
        return perf_counter() - t0

    def due(self) -> bool:
        return perf_counter() - self.at >= YARDSTICK_EVERY_S

    def scale(self) -> float:
        """The factor for the work done since the last reading; takes a new reading."""
        before, self.last = self.last, self.reading()
        self.at = perf_counter()
        self.readings.append(self.last)
        return 2.0 * YARDSTICK_S / (before + self.last)


class Segment:
    """Outcome of one timed loop: per-position scaled times, counts, set-ups, failures, digest."""

    def __init__(self, items: int, requests_per_step: int):
        self.per_step = requests_per_step
        self.busy = [array("d") for _ in range(items)]
        self.lat = [array("d") for _ in range(items)]
        self.units = [0] * items
        self.counts: dict[str, int] = {}
        self.setups: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.problems: list[str] = []
        self.digest = ""
        self.yardstick = Yardstick()
        self.pending: list[tuple] = []

    def record(self, i: int, latencies: list[float], busy: float, counts: dict) -> None:
        """Keep a step's outcome until the next yardstick reading scales it."""
        self.pending.append((i, latencies, busy))
        self.units[i] = counts["ops"]
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def flush(self) -> None:
        """Scale the pending steps by the yardstick readings around them."""
        scale = self.yardstick.scale()
        for i, latencies, busy in self.pending:
            self.busy[i].append(busy * scale)
            self.lat[i].extend(t * scale for t in latencies)
        self.pending.clear()

    def add_setup(self, times: dict) -> None:
        scale = self.yardstick.scale()
        self.setups.append({k: t * scale for k, t in times.items()})

    def fail(self, requests: int, problems: list[str]) -> None:
        self.failed += requests
        self.problems.extend(problems)

    @property
    def latencies(self) -> list[float]:
        """Each request position's median time over the passes."""
        n = self.per_step
        return [statistics.median(lat[k::n]) for lat in self.lat if lat for k in range(n)]

    @property
    def ops_per_s(self) -> float:
        done = [i for i, busy in enumerate(self.busy) if busy]
        busy = sum(statistics.median(self.busy[i]) for i in done)
        return sum(self.units[i] for i in done) / busy if busy else 0.0

    @property
    def setup_s(self) -> float:
        return statistics.median(t["total"] for t in self.setups)


def pass_rng(seed: int, index: int):
    """The generator of one pass's inputs: the same seed and pass give the same inputs."""
    return np.random.default_rng([seed, 2, index])


def run_segment(workload, seed: int, seconds: float, tracer: Tracer | None = None) -> Segment:
    """Run whole passes over the workload's items until `seconds` have passed.

    Each pass first sets up afresh, outside the timed region: it re-imports
    svmsoc and has the workload build new program objects from new inputs.
    Every item position keeps its median scaled time over the passes (see
    Yardstick).  Every output is checked; the first pass's outputs are
    hashed into the digest.
    """
    seg = Segment(len(workload.items), workload.requests_per_step)
    digest = hashlib.sha256()
    n = workload.requests_per_step
    span = tracer.span if tracer else (lambda name: nullcontext())
    package = None
    start = perf_counter()
    while seg.passes == 0 or perf_counter() - start < seconds:
        # free the previous pass's program and objects before building new ones
        package = None
        gc.unfreeze()
        gc.collect()
        seg.yardstick.scale()  # a reading right before the set-up
        package, times = load_program(workload, pass_rng(seed, seg.passes))
        seg.add_setup(times)
        if tracer is not None:
            instrument(tracer, package)
        gc.freeze()
        for i, item in enumerate(workload.items):
            tag = workload.size(item)
            seg.attempted += n
            try:
                with span(f"{REQUEST}@{tag}"):
                    out, latencies, busy, counts = workload.step(package, item)
            except Exception:
                seg.fail(n, [f"{workload.name} item {i} raised:\n{traceback.format_exc()}"])
                out = None
            else:
                seg.record(i, latencies, busy, counts)
            if seg.passes == 0:
                fingerprint = b"raised" if out is None else workload.fingerprint(item, out)
                digest.update(hashlib.sha256(fingerprint).digest())
            if out is not None:
                problems = run_checks(workload, package, item, out, span, tag, tracer)
                if problems:
                    seg.fail(n, problems)
            if seg.yardstick.due():
                seg.flush()
        seg.flush()
        seg.passes += 1
    seg.digest = digest.hexdigest()
    return seg


def run_checks(workload, package, item, out, span, tag, tracer) -> list[str]:
    try:
        with span(f"{CHECK}@{tag}"):
            problems = workload.check(package, item, out)
        if tracer is not None and hasattr(workload, "probe"):
            with span(f"{PROBE}@{tag}"):
                problems += workload.probe(package, item, out)
    except Exception:
        problems = [f"{workload.name} check raised:\n{traceback.format_exc()}"]
    return problems


# --------------------------------------------------------------------------
# metrics


def tail_percentile(n: int) -> float:
    """The highest of p50, p90, p99, ... with at least 10 samples beyond it.

    Below 20 samples no percentile has 10 beyond it; the maximum is used.
    """
    if n < 20:
        return 100.0
    k = 0
    while n >= 10 ** (k + 2):
        k += 1
    return 100.0 * (1.0 - 10.0**-k) if k else 50.0


def end_to_end(seg: Segment) -> tuple[dict, float]:
    lat = np.asarray(seg.latencies) * 1e3
    q = tail_percentile(len(lat))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (seg.ops_per_s, "1/s"),
        "latency_p50_ms": (float(np.percentile(lat, 50)), "ms"),
        "latency_tail_ms": (float(np.percentile(lat, q)), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (seg.setup_s, "s"),
    }
    return metrics, q


# Mean self time per call of one span, as (metric, unit, span, root kind).
SELF_TIMES = [
    ("model_io.parse_native_model_us", "us", "model_io.parse_native_model", REQUEST),
    ("model_io.load_dataset_us", "us", "model_io.load_dataset", REQUEST),
    ("model_io.format_real_ns", "ns", "model_io.format_real", REQUEST),
    ("model_io.emit_stream_us", "us", "model_io.emit_stream", REQUEST),
    ("model_io.parse_svmlight_model_us", "us", "model_io.parse_svmlight_model", REQUEST),
    ("model_io.parse_test_instance_us", "us", "model_io.parse_test_instance", REQUEST),
    ("model_io.emit_native_model_us", "us", "model_io.emit_native_model", REQUEST),
    ("model_io.emit_dataset_us", "us", "model_io.emit_dataset", REQUEST),
    ("model_io.make_synthetic_ms", "ms", "model_io.make_synthetic", REQUEST),
    ("model_io.parse_stream_us", "us", "model_io.parse_stream", REQUEST),
    ("accel.run_accelerator_us", "us", "accel.run_accelerator", REQUEST),
    ("accel.accumulate_weight_vector_us", "us", "accel.accumulate_weight_vector", PROBE),
    ("accel.dot_distance_us", "us", "accel.dot_distance", PROBE),
    ("accel.decide_us", "us", "accel.decide", REQUEST),
    ("driver.run_software_reference_us", "us", "driver.run_software_reference", REQUEST),
    ("driver.cosim_self_us", "us", "driver.cosim", REQUEST),
    ("driver.run_oracle_us", "us", "driver.run_oracle", CHECK),
    ("synth.explore_us", "us", "synth.explore", REQUEST),
    ("synth.estimate_design_us", "us", "synth.estimate_design", REQUEST),
    ("synth.load_calibration_us", "us", "synth.load_calibration", REQUEST),
    ("synth.estimate_latency_us", "us", "synth.estimate_latency", REQUEST),
    ("synth.estimate_arm_cycles_us", "us", "synth.estimate_arm_cycles", REQUEST),
]
SCALE = {"ns": 1.0, "us": 1e3, "ms": 1e6}
# Median set-up time of one program call, as (metric, unit, key of load_program's times).
SETUP_TIMES = [
    ("svmsoc.import_ms", "ms", "import_svmsoc"),
    ("synth.default_calibration_ms", "ms", "default_calibration"),
    ("synth.parse_anchor_csv_us", "us", "parse_anchor_csv"),
    ("synth.fit_calibration_us", "us", "fit_calibration"),
    ("synth.save_calibration_us", "us", "save_calibration"),
]
NO_CALLS = (0, 0, 0, 0)


def by_kind(summary: dict, tag: str | None = None) -> dict:
    """{(root kind, span): (calls, self ns, total ns, raised)}, over all sizes or one."""
    out = {}
    for (root, name), stats in summary.items():
        kind, _, size = root.partition("@")
        if tag is None or size == tag:
            out[(kind, name)] = tuple(map(add, out.get((kind, name), NO_CALLS), stats))
    return out


def ratio(a, b):
    return a / b if b else 0.0


def timings(stats: dict, rows_per_batch: float) -> dict:
    """Time per call of each traced function: {metric: (value or None if never called, unit)}.

    Self time for SELF_TIMES; `batch_classify` and `cli.main` are inclusive.
    """
    m = {}
    for metric, unit, span, root in SELF_TIMES:
        calls, own, _, _ = stats.get((root, span), NO_CALLS)
        m[metric] = (own / calls / SCALE[unit] if calls else None, unit)
    batches, _, batch_ns, _ = stats.get((REQUEST, "driver.batch_classify"), NO_CALLS)
    m["driver.batch_classify_ms"] = (batch_ns / batches / 1e6 if batches else None, "ms")
    rows = batches * rows_per_batch
    m["driver.batch_us_per_row"] = (batch_ns / rows / 1e3 if rows else None, "us")
    mains, _, main_ns, _ = stats.get((REQUEST, "cli.main"), NO_CALLS)
    m["cli.main_ms"] = (main_ns / mains / 1e6 if mains else None, "ms")
    return m


def per_layer(summary: dict, seg: Segment, untraced_ops_per_s: float):
    """The per-layer metrics of a traced segment; counts are per pass."""
    stats = by_kind(summary)

    def per_pass(count):
        return (count / seg.passes, "count")

    def calls(span):
        return stats.get((REQUEST, span), NO_CALLS)[0]

    counts = seg.counts
    batches = calls("driver.batch_classify")
    m = {k: (v or 0.0, u) for k, (v, u) in timings(stats, ratio(counts.get("rows", 0), batches)).items()}
    for metric, unit, key in SETUP_TIMES:
        m[metric] = (statistics.median(t.get(key, 0.0) for t in seg.setups) * 1e9 / SCALE[unit], unit)
    m["model_io.values_parsed"] = per_pass(counts.get("values_parsed", 0))
    m["model_io.values_emitted"] = per_pass(counts.get("values_emitted", 0))
    accel_ns = stats.get((REQUEST, "accel.run_accelerator"), NO_CALLS)[2]
    m["accel.ns_per_mac"] = (ratio(accel_ns, counts.get("macs", 0)), "ns")
    m["accel.frames"] = per_pass(calls("accel.run_accelerator"))
    m["driver.sw_ref_calls"] = per_pass(calls("driver.run_software_reference"))
    estimates, _, _, refusals = stats.get((REQUEST, "synth.estimate_design"), NO_CALLS)
    m["synth.estimates"] = per_pass(estimates)
    m["synth.refusals"] = per_pass(refusals)
    m["synth.useful_estimate_ratio"] = (ratio(estimates - refusals, estimates), "ratio")

    layer_ns = dict.fromkeys(LAYERS, 0)
    for (root, span), (_, own, _, _) in stats.items():
        layer = span.partition(".")[0]
        if root == REQUEST and layer in layer_ns:
            layer_ns[layer] += own
    m["cli.self_ms"] = (ratio(layer_ns["cli"], calls("cli.main")) / 1e6, "ms")
    program_ns = sum(layer_ns.values())
    for layer, ns in layer_ns.items():
        m[f"{layer}.self_share"] = (ratio(ns, program_ns), "ratio")
    m["trace.overhead_ratio"] = (ratio(untraced_ops_per_s, seg.ops_per_s), "ratio")
    return m


def layer_table(summary: dict, seg: Segment) -> dict:
    """The traced times per call split by size, at the paper and stress sizes."""
    rows_per_batch = ratio(
        seg.counts.get("rows", 0), by_kind(summary).get((REQUEST, "driver.batch_classify"), NO_CALLS)[0]
    )
    table = {}
    for s, fl in SIZES:
        tag = size_tag(s, fl)
        cells = timings(by_kind(summary, tag), rows_per_batch)
        table[tag] = {k: v for k, (v, _) in cells.items() if v is not None}
    return table


# --------------------------------------------------------------------------
# environment record


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def environment(args, requests: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "requests": requests,
    }


# --------------------------------------------------------------------------
# one workload


def run_workload(args) -> dict:
    anchors = check_source().synth.SHIPPED_ANCHORS
    # the request layout; each pass draws its inputs from pass_rng
    rng = np.random.default_rng([args.seed, 1])
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as work:
        workload = WORKLOADS[args.workload](rng, Path(work), anchors)
        if args.trace:
            plain = run_segment(workload, args.seed, args.seconds / 2)
            tracer = Tracer()
            seg = run_segment(workload, args.seed, args.seconds / 2, tracer)
            segments = [plain, seg]
        else:
            seg = run_segment(workload, args.seed, args.seconds)
            segments = [seg]

    attempted = sum(s.attempted for s in segments)
    failed = sum(s.failed for s in segments)
    problems = [p for s in segments for p in s.problems]
    digest = segments[0].digest
    if any(s.digest != digest for s in segments):
        failed += 1
        problems.append("traced and untraced runs gave different digests")
    recorded = BASELINE["digests"].get(args.workload)
    digest_note = "no recorded digest for this seed"
    if args.seed == DEFAULT_SEED and recorded:
        digest_note = "matches the recorded digest" if recorded == digest else "DIFFERS from the recorded digest"
        if recorded != digest:
            failed += 1
            problems.append(f"digest {digest} differs from the recorded {recorded}")

    print("env " + json.dumps(environment(args, attempted), sort_keys=True))
    print(
        f"digest {args.workload} {digest} (first pass, {len(workload.items)} items; {digest_note})"
    )
    readings = np.asarray(seg.yardstick.readings) * 1e3
    print(
        f"yardstick {np.median(readings):.4g} ms median, {readings.min():.4g}-{readings.max():.4g} ms"
        f" over {len(readings)} readings (reference {YARDSTICK_S * 1e3:g} ms)"
    )
    for p in problems[:10]:
        print(f"FAILED {p}", file=sys.stderr)

    if args.trace:
        summary = tracer.summary()
        metrics = per_layer(summary, seg, plain.ops_per_s)
        print("layer_table " + json.dumps({args.workload: layer_table(summary, seg)}))
    else:
        metrics, q = end_to_end(seg)
    print(f"workload {args.workload}: {attempted} requests in {sum(s.passes for s in segments)} passes"
          f" ({len(workload.items)} items each), unit of work: {workload.unit}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{q:g} of {len(seg.latencies)} requests)"
        print(f"  {name} = {value:.6g} {unit}{note}")
    print(f"  error_rate = {failed / attempted:.6g} ({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, so each peak_rss_mb is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
