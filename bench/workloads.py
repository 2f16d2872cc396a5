"""The benchmark workloads.

Each workload cuts its work into a fixed list of `items`, one pass: the
sizes, directives and clocks of its requests.  `setup` runs once per pass on
a freshly imported program: it draws that pass's inputs from the generator it
is given (uniform in [-1, 1], like the acceptance pool), builds the program
objects from them and returns the time of those program calls.  So no pass
can reuse an object, an input or a cache entry of an earlier pass.  `step`
runs one item and times itself; `check` verifies an output against the
benchmark's own expectation; `fingerprint` gives the bytes that go into the
output digest.  Host time throughout: no number here is simulated time.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from dataclasses import dataclass
from operator import add
from pathlib import Path
from time import perf_counter

import numpy as np

F32 = np.float32
F64 = np.float64
# half the binary32 epsilon; gamma_n = n*u/(1 - n*u) bounds n chained roundings
UNIT_ROUNDOFF = float(np.finfo(np.float32).eps) / 2.0

# The paper's three classifier sizes plus the stress size.
SIZES = ((61, 27), (248, 27), (346, 27), (400, 64))
# Rows per dataset: enough that per-model work is small beside per-row work,
# few enough that each dataset repeats many times in a run (see README).
SCORE_ROWS = 100
ROUNDTRIP_ROWS = 32  # dataset rows per roundtrip request, make_synthetic's default
CALIBRATED_FL = 27  # the only feature count the processor-cycle calibration covers
EXPLORE_MHZ = 100.0
COSIM_CLOCKS = (100.0, 666.67)
# S=61 requests that run the measured-anchor cycle path: (directive, clocks,
# source, cycles).  None means the latency model plus one cycle per word.
ANCHORED_COSIM = (
    ("pipeline-inner", (250.0, 250.0), "measured_anchor", 3693),
    ("unroll-most", (250.0, 250.0), "measured_anchor", 3690),
    ("pipeline-inner", (250.0, 666.67), "measured_anchor", 2815),
    ("unroll-most", (250.0, 666.67), "estimated", None),
)
ANCHORED_EVERY = 11  # one request in eleven is an anchored S=61 request


def bits(value) -> int:
    """The binary32 bit pattern of a value."""
    return int(np.float32(value).view(np.uint32))


def gamma(n: int) -> float:
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def random_model(rng, s: int, fl: int):
    sv = rng.uniform(-1.0, 1.0, (s, fl)).astype(F32)
    ay = rng.uniform(-1.0, 1.0, s).astype(F32)
    bias = F32(rng.uniform(-1.0, 1.0))
    return sv, ay, bias


def mass(sv, ay, bias, x) -> np.ndarray:
    """Total magnitude fed through the accumulators, per row of x."""
    absw = np.abs(sv.astype(F64)).T @ np.abs(ay.astype(F64))
    return np.abs(np.atleast_2d(x).astype(F64)) @ absw + abs(float(bias))


def labelled_rows(rng, sv, ay, bias, n: int):
    """n rows whose float64 label no binary32 rounding can flip.

    Rows are kept only when |d| clears both a relative margin of 1e-3 and
    twice the gamma_n bound on the binary32 pipeline's error.
    """
    s, fl = sv.shape
    w = sv.astype(F64).T @ ay.astype(F64)
    g = gamma(s + fl + 2)
    rows, labels = [], []
    while sum(len(r) for r in rows) < n:
        x = rng.uniform(-1.0, 1.0, (n, fl)).astype(F32)
        d = x.astype(F64) @ w - float(bias)
        margin = np.maximum(1e-3 * (1.0 + np.abs(d)), 2.0 * g * mass(sv, ay, bias, x))
        keep = np.abs(d) >= margin
        rows.append(x[keep])
        labels.append(np.where(d[keep] >= 0.0, 1, -1))
    return np.concatenate(rows)[:n], np.concatenate(labels)[:n]


def real_text(values) -> list[str]:
    """Decimal text that parses back to the same binary32 (shortest float64 repr)."""
    return [repr(v) for v in np.asarray(values, dtype=F64).ravel().tolist()]


def size_tag(s: int, fl: int) -> str:
    """The size a request runs at, as its span names and the layer table show it."""
    return f"S={s},Fl={fl}"


def anchor_csv(anchors) -> str:
    """The anchor rows as the CSV text `parse_anchor_csv` reads, one line per row."""
    header = ",".join(anchors[0]._fields)
    return header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in anchors)


def estimate_fields(est) -> tuple:
    return (
        est.validity,
        est.latency_cycles,
        est.throughput_cycles,
        float(est.bram).hex(),
        est.dsp,
        est.ff,
        est.lut,
    )


# --------------------------------------------------------------------------
# score: classify labelled CSVs through the CLI


@dataclass
class ScoreItem:
    sv_count: int
    feature_count: int
    folder: Path
    argv: list
    labels: np.ndarray | None = None  # this pass's float64 labels


class Score:
    """One command per dataset; one model and SCORE_ROWS rows at each size.

    Every pass writes a fresh model and dataset at each size to the same files.
    """

    name = "score"
    unit = "rows"
    requests_per_step = 1

    def __init__(self, rng, workdir: Path, anchors):
        self.items = []
        for s, fl in SIZES:
            d = workdir / f"score-{s}-{fl}"
            d.mkdir()
            argv = [
                "classify",
                "--svs", str(d / "svs.txt"),
                "--alpha", str(d / "alpha.txt"),
                "--input", str(d / "data.csv"),
                "--machine",
            ]
            self.items.append(ScoreItem(s, fl, d, argv))

    def size(self, item: ScoreItem) -> str:
        return size_tag(item.sv_count, item.feature_count)

    def setup(self, sv, rng) -> dict:
        for item in self.items:
            vectors, ay, bias = random_model(rng, item.sv_count, item.feature_count)
            x, item.labels = labelled_rows(rng, vectors, ay, bias, SCORE_ROWS)
            d = item.folder
            (d / "svs.txt").write_text(
                "".join(" ".join(real_text(row)) + "\n" for row in vectors)
            )
            (d / "alpha.txt").write_text("\n".join(real_text([bias, *ay])) + "\n")
            cells = np.array(real_text(x), dtype=object).reshape(x.shape)
            (d / "data.csv").write_text(
                "".join(
                    ",".join(row) + f",{label}\n" for row, label in zip(cells, item.labels)
                )
            )
        return {}  # no program call: the command parses the files in the request

    def step(self, sv, item: ScoreItem):
        buf = io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(buf):
            code = sv.cli.main(item.argv)
        dt = perf_counter() - t0
        s, fl, n = item.sv_count, item.feature_count, len(item.labels)
        counts = {
            "ops": n,
            "rows": n,
            "values_parsed": s * fl + s + 1 + n * fl,
            "values_emitted": n,
        }
        return (code, buf.getvalue()), [dt], dt, counts

    def check(self, sv, item: ScoreItem, out) -> list:
        code, text = out
        if code != 0:
            return [f"classify exited with {code}"]
        n = len(item.labels)
        lines = text.splitlines()
        if len(lines) != n + 3:
            return [f"expected {n + 3} output lines, got {len(lines)}"]
        fields = [dict(f.split("=", 1) for f in line.split()) for line in lines[:n]]
        predicted = np.array([int(f["predicted"]) for f in fields])
        problems = []
        wrong = int(np.count_nonzero(predicted != item.labels))
        if wrong:
            problems.append(f"S={item.sv_count}: {wrong} predictions differ from the float64 label")
        if lines[n:n + 2] != [f"correct={n}", f"total={n}"]:
            problems.append(f"S={item.sv_count}: summary lines {lines[n:n + 2]}")
        return problems

    def fingerprint(self, item, out) -> bytes:
        code, text = out
        return f"{code}\n{text}".encode()


# --------------------------------------------------------------------------
# cosim: a stream of co-simulation reports on objects built in advance


@dataclass(frozen=True)
class CosimItem:
    index: int
    sv_count: int
    directive: str
    clocks: tuple
    source: str
    cycles: int | None


class Cosim:
    """Fresh random model per request, S in 1..400, Fl=27.

    The sizes, directives and clocks of the requests are fixed for the run;
    every pass draws new models and instances for them.
    """

    name = "cosim"
    unit = "reports"
    requests_per_step = 1

    def __init__(self, rng, workdir: Path, anchors):
        svs_at = {}
        for s, fl, d, mhz, *_ in anchors:
            if mhz == EXPLORE_MHZ and fl == CALIBRATED_FL:
                svs_at.setdefault(d, set()).add(s)
        directives = sorted(d for d, svs in svs_at.items() if len(svs) >= 2)
        latency_61 = {(d, mhz): lat for s, _, d, mhz, lat, *_ in anchors if s == 61}
        sizes = rng.permutation(np.arange(1, 401))
        fl = CALIBRATED_FL
        total = len(sizes) * ANCHORED_EVERY // (ANCHORED_EVERY - 1)
        self.items = []
        general = 0
        for j in range(total):
            if j % ANCHORED_EVERY == ANCHORED_EVERY - 1:
                d, clocks, source, cycles = ANCHORED_COSIM[(j // ANCHORED_EVERY) % len(ANCHORED_COSIM)]
                s = 61
                if cycles is None:
                    cycles = latency_61[(d, clocks[0])] + s * fl + 1 + s + fl
            else:
                s = int(sizes[general])
                d = directives[general % len(directives)]
                clocks, source, cycles = COSIM_CLOCKS, "estimated", None
                general += 1
            self.items.append(CosimItem(j, s, d, clocks, source, cycles))
        self.objects = []  # this pass's (model, test, clocks, mass) per item

    def size(self, item: CosimItem) -> str:
        return size_tag(item.sv_count, CALIBRATED_FL)

    def setup(self, sv, rng) -> dict:
        """Build every request's program objects; only the arrays' program copies stay."""
        self.objects = []
        clocks = {}
        spent = 0.0
        for it in self.items:
            vectors, ay, bias = random_model(rng, it.sv_count, CALIBRATED_FL)
            x = rng.uniform(-1.0, 1.0, CALIBRATED_FL).astype(F32)
            m = float(mass(vectors, ay, bias, x)[0])
            t0 = perf_counter()
            if it.clocks not in clocks:
                clocks[it.clocks] = sv.ClockPair(*it.clocks)
            model, test = sv.TrainedModel(vectors, ay, float(bias)), sv.TestInstance(x)
            spent += perf_counter() - t0
            self.objects.append((model, test, clocks[it.clocks], m))
        return {"build_objects": spent}

    def step(self, sv, item: CosimItem):
        model, test, clocks, _ = self.objects[item.index]
        t0 = perf_counter()
        rep = sv.cosim(model, test, item.directive, clocks)
        dt = perf_counter() - t0
        s, fl = item.sv_count, CALIBRATED_FL
        counts = {"ops": 1, "values_emitted": s * fl + s + 1 + fl, "macs": s * fl + fl}
        return rep, [dt], dt, counts

    def check(self, sv, item: CosimItem, rep) -> list:
        problems = []
        hw, swr = rep.hw, rep.sw
        if not rep.results_match or hw.label != swr.label:
            problems.append("hardware and software labels or results differ")
        if bits(hw.distance) != bits(swr.distance) or bits(hw.raw_distance) != bits(swr.raw_distance):
            problems.append("hardware and software distance bits differ")
        model, test, _, m = self.objects[item.index]
        oracle_label, d = sv.run_oracle(model, test)
        bound = gamma(item.sv_count + CALIBRATED_FL + 2) * m
        if abs(d) > bound and hw.label != oracle_label:
            problems.append(f"label {hw.label} disagrees with the oracle beyond the binary32 bound")
        if rep.cycle_source != item.source:
            problems.append(f"cycle source {rep.cycle_source}, expected {item.source}")
        if item.cycles is not None and rep.hw_cycles != item.cycles:
            problems.append(f"{item.directive} at S=61 gave {rep.hw_cycles} cycles, expected {item.cycles}")
        return [f"cosim request {item.index} (S={item.sv_count}): {p}" for p in problems]

    def probe(self, sv, item: CosimItem, rep) -> list:
        """Time the accelerator's steps on the request's own inputs."""
        model, test, _, _ = self.objects[item.index]
        acc = sv.accumulate_weight_vector(model)
        raw = sv.dot_distance(acc, test)
        label, distance = sv.decide(raw, model.bias)
        if label != rep.hw.label or bits(distance) != bits(rep.hw.distance):
            return [f"cosim request {item.index}: accelerator steps disagree with run_accelerator"]
        return []

    def fingerprint(self, item, rep) -> bytes:
        hw, swr = rep.hw, rep.sw
        fields = (
            rep.directive.name,
            hw.label, bits(hw.distance), bits(hw.raw_distance), hw.finite,
            swr.label, bits(swr.distance), bits(swr.raw_distance), swr.finite,
            rep.results_match, rep.cycle_source,
            rep.hw_cycles, rep.sw_cycles, rep.sw_cycles_optimized,
            *(
                float(v).hex()
                for v in (
                    rep.sw_timer_mhz, rep.hw_time_us, rep.sw_time_us, rep.sw_opt_time_us,
                    rep.cycle_speedup_plain, rep.cycle_speedup_optimized,
                    rep.time_speedup_plain, rep.time_speedup_optimized,
                )
            ),
        )
        return repr(fields).encode()


# --------------------------------------------------------------------------
# explore: the design-space sweep, built-in and user calibration


class Explore:
    """S = 1..400 at Fl=27 and 100 MHz; two explore() calls per point.

    The inputs are the sweep itself, so the seed does not change them; the
    fresh import of every pass keeps one pass from reusing another's results.
    The user calibration is loaded from JSON text once per point, as the
    --calibration path of the CLI would; that load is work of the timed loop
    but not part of either request's latency.  The JSON is made in set-up from
    the shipped anchor rows, written out as CSV text.
    """

    name = "explore"
    unit = "explore calls"
    requests_per_step = 2

    def __init__(self, rng, workdir: Path, anchors):
        self.anchors_text = anchor_csv(anchors)
        self.anchors = [r for r in anchors if r.regime_mhz == EXPLORE_MHZ]
        svs_at = {}
        for s, _, d, *_ in self.anchors:
            svs_at.setdefault(d, set()).add(s)
        self.directives = sorted(svs_at.items())
        self.items = list(range(1, 401))
        self.calibration_json = None

    def size(self, s: int) -> str:
        return size_tag(s, CALIBRATED_FL)

    def setup(self, sv, rng) -> dict:
        t0 = perf_counter()
        rows = sv.parse_anchor_csv(self.anchors_text)
        t1 = perf_counter()
        cal = sv.fit_calibration(rows)
        t2 = perf_counter()
        self.calibration_json = sv.save_calibration(cal)
        t3 = perf_counter()
        return {"parse_anchor_csv": t1 - t0, "fit_calibration": t2 - t1, "save_calibration": t3 - t2}

    def step(self, sv, s: int):
        t0 = perf_counter()
        cal = sv.load_calibration(self.calibration_json)
        t1 = perf_counter()
        built_in = sv.explore(s, CALIBRATED_FL, EXPLORE_MHZ)
        t2 = perf_counter()
        user = sv.explore(s, CALIBRATED_FL, EXPLORE_MHZ, calibration=cal)
        t3 = perf_counter()
        return (built_in, user, cal), [t2 - t1, t3 - t2], t3 - t0, {"ops": 2}

    def _brute_force(self, sv, s: int, cal, problems: list) -> list:
        candidates = []
        for d, anchor_svs in self.directives:
            refusal_expected = len(anchor_svs) == 1 and s not in anchor_svs
            try:
                est = sv.estimate_design(s, CALIBRATED_FL, d, EXPLORE_MHZ, calibration=cal)
            except (sv.UnknownCalibration, sv.FlMismatch):
                if not refusal_expected:
                    problems.append(f"S={s}: {d} refused unexpectedly")
                continue
            if refusal_expected:
                problems.append(f"S={s}: {d} estimated from a single anchor")
            cost = (est.latency_cycles, est.dsp, est.lut, est.ff, est.bram)
            candidates.append((d, est, cost))
        front = [
            c for c in candidates
            if not any(
                all(x <= y for x, y in zip(o[2], c[2])) and o[2] != c[2]
                for o in candidates
            )
        ]
        front.sort(key=lambda c: (c[1].latency_cycles, c[0]))
        return [(d, estimate_fields(est)) for d, est, _ in front]

    def check(self, sv, s: int, out) -> list:
        built_in, user, cal = out
        problems = []
        fronts = {}
        for label, front, calibration in (("built-in", built_in, None), ("user", user, cal)):
            got = [(e.directive.name, estimate_fields(e.estimate)) for e in front]
            if got != self._brute_force(sv, s, calibration, problems):
                problems.append(f"S={s}: {label} front differs from the brute-force Pareto set")
            fronts[label] = got
        if fronts["built-in"] != fronts["user"]:
            problems.append(f"S={s}: user calibration front differs from the built-in one")
        for rs, _, d, _, lat, bram, dsp, ff, lut in self.anchors:
            if rs != s:
                continue
            est = sv.estimate_design(s, CALIBRATED_FL, d, EXPLORE_MHZ)
            want = ("anchor_exact", lat, lat + 1, float(bram).hex(), dsp, ff, lut)
            if estimate_fields(est) != want:
                problems.append(f"S={s}: {d} does not reproduce its anchor row")
        return problems

    def fingerprint(self, s, out) -> bytes:
        built_in, user, _ = out
        return repr(
            (
                s,
                [(e.directive.name, estimate_fields(e.estimate), e.power_w) for e in built_in],
                [(e.directive.name, estimate_fields(e.estimate), e.power_w) for e in user],
            )
        ).encode()


# --------------------------------------------------------------------------
# roundtrip: generate, emit and parse back every format


def svmlight_text(model, documents: int) -> str:
    """The model as an SVM-Light linear-kernel model file, rendered by the benchmark."""
    fl = model.feature_count
    header = [
        "SVM-light Version V6.02",
        "0 # kernel type",
        "3 # kernel parameter -d",
        "1 # kernel parameter -g",
        "1 # kernel parameter -s",
        "1 # kernel parameter -r",
        "empty # kernel parameter -u",
        f"{fl} # highest feature index",
        f"{documents} # number of training documents",
        f"{model.sv_count + 1} # number of support vectors plus 1",
        f"{real_text([model.bias])[0]} # threshold b",
    ]
    indices = [f"{j}:" for j in range(1, fl + 1)]
    rows = np.array(real_text(model.support_vectors), dtype=object).reshape(model.sv_count, fl)
    lines = [
        weight + " " + " ".join(map(add, indices, row)) + " #"
        for weight, row in zip(real_text(model.alpha_y), rows)
    ]
    return "\n".join(header + lines) + "\n"


@dataclass
class RoundtripItem:
    sv_count: int
    feature_count: int
    seed: int = 0  # this pass's make_synthetic seed


class Roundtrip:
    """One request per size: a synthetic model and dataset through every format.

    The request generates them with `make_synthetic`, emits the native model,
    one test instance and the dataset, parses them back together with an
    SVM-Light rendering of the model, and sends one frame through
    `emit_stream`, bytes and `parse_stream`.  Only the program calls are
    timed; rendering the SVM-Light text is the benchmark's own work.
    """

    name = "roundtrip"
    unit = "values"  # binary32 values parsed back by the program
    requests_per_step = 1

    def __init__(self, rng, workdir: Path, anchors):
        self.items = [RoundtripItem(s, fl) for s, fl in SIZES]

    def size(self, item: RoundtripItem) -> str:
        return size_tag(item.sv_count, item.feature_count)

    def setup(self, sv, rng) -> dict:
        for item in self.items:
            item.seed = int(rng.integers(2**32))
        return {}  # generation is the request's own first call

    def step(self, sv, item: RoundtripItem):
        s, fl, n = item.sv_count, item.feature_count, ROUNDTRIP_ROWS
        t0 = perf_counter()
        model, dataset = sv.make_synthetic(s, fl, item.seed, n)
        svs, alpha = sv.emit_native_model(model)
        instance = sv.emit_test_instance(dataset.instances[0])
        csv = sv.emit_dataset(dataset)
        t1 = perf_counter()
        light = svmlight_text(model, n)
        t2 = perf_counter()
        parsed = (
            sv.parse_native_model(svs, alpha),
            sv.parse_test_instance(instance, fl),
            sv.load_dataset(csv),
            sv.parse_svmlight_model(light),
        )
        frame = sv.emit_stream(model, dataset.instances[0]).to_bytes()
        streamed = sv.parse_stream(sv.StreamFrame.from_bytes(frame), s, fl)
        t3 = perf_counter()
        busy = (t1 - t0) + (t3 - t2)
        model_values = s * fl + s + 1
        words = model_values + fl
        counts = {
            "ops": 2 * model_values + fl + n * fl + words,
            "values_parsed": 2 * model_values + fl + n * fl + words,
            "values_emitted": model_values + fl + n * fl + words,
        }
        out = (model, dataset, (svs, alpha, instance, csv), frame, parsed, streamed)
        return out, [busy], busy, counts

    def check(self, sv, item: RoundtripItem, out) -> list:
        model, dataset, _, frame, parsed, streamed = out
        native, instance, loaded, light = parsed
        first = dataset.instances[0]
        problems = []
        if model.support_vectors.shape != (item.sv_count, item.feature_count):
            problems.append(f"make_synthetic gave a {model.support_vectors.shape} model")
        if native != model:
            problems.append("native model text does not parse back bit-equal")
        if instance != first:
            problems.append("test instance text does not parse back bit-equal")
        if loaded.labels != dataset.labels or any(a != b for a, b in zip(loaded.instances, dataset.instances)):
            problems.append("dataset CSV does not load back bit-equal")
        if len(loaded) != len(dataset):
            problems.append(f"dataset CSV loads {len(loaded)} rows, not {len(dataset)}")
        if light != model:
            problems.append("SVM-Light model does not parse back bit-equal")
        if len(frame) != 4 * sv.StreamFrame.word_count(item.sv_count, item.feature_count):
            problems.append(f"frame of {len(frame)} bytes")
        if streamed[0] != model or streamed[1] != first:
            problems.append("stream frame does not parse back bit-equal")
        return [f"roundtrip {self.size(item)}: {p}" for p in problems]

    def fingerprint(self, item, out) -> bytes:
        _, dataset, texts, frame, _, _ = out
        return "\0".join(texts).encode() + frame + bytes(str(dataset.labels), "ascii")


WORKLOADS = {w.name: w for w in (Score, Cosim, Explore, Roundtrip)}
