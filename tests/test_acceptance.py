"""End-to-end acceptance gate.

One test per shipped guarantee, executed in order, each printing a
single "CRITERION n (...): PASS" line once its assertions hold (visible
with -s, or in captured output otherwise; the verbose test listing
carries the same per-criterion verdicts).

Criteria 5 and 6 share a pool of 10^4 seeded random (model, test) pairs
computed once per session: S in [1, 400], Fl in [1, 64], every stored
real drawn uniform from [-1, 1].
"""
import numpy as np
import pytest

from svmsoc import (
    ClockPair,
    TestInstance,
    TrainedModel,
    batch_classify,
    cosim,
    default_calibration,
    emit_native_model,
    emit_stream,
    estimate_arm_cycles,
    estimate_design,
    estimate_latency,
    estimate_power,
    explore,
    make_synthetic,
    parse_native_model,
    parse_stream,
    parse_svmlight_model,
    run_accelerator,
    run_software_reference,
)
from svmsoc.driver import run_oracle
from svmsoc.errors import FlMismatch, UnknownCalibration
from svmsoc.model_io import format_real

POOL_SEED = 20260823
POOL_SIZE = 10_000


def _pass(n: int, name: str) -> None:
    print(f"CRITERION {n} ({name}): PASS")


def _bits(v: float) -> int:
    return int(np.float32(v).view(np.uint32))


@pytest.fixture(scope="session")
def pool():
    """hw/sw/oracle results for 10^4 random classification problems."""
    rng = np.random.default_rng(POOL_SEED)
    recs = {
        k: []
        for k in (
            "hw_bits", "sw_bits", "hw_label", "sw_label",
            "oracle_label", "oracle_d", "rel_err", "kappa", "margin_ok",
        )
    }
    for _ in range(POOL_SIZE):
        s = int(rng.integers(1, 401))
        fl = int(rng.integers(1, 65))
        sv = rng.uniform(-1, 1, (s, fl)).astype(np.float32)
        ay = rng.uniform(-1, 1, s).astype(np.float32)
        b = float(rng.uniform(-1, 1))
        x = rng.uniform(-1, 1, fl).astype(np.float32)
        model = TrainedModel(sv, ay, b)
        inst = TestInstance(x)

        hw = run_accelerator(emit_stream(model, inst), s, fl, 0.0)
        sw = run_software_reference(model, inst, 0.0)
        olabel, d = run_oracle(model, inst, 0.0)
        # total magnitude fed through the accumulators, for conditioning
        mass = float(
            np.abs(ay.astype(np.float64))
            @ np.abs(sv.astype(np.float64))
            @ np.abs(x.astype(np.float64))
            + abs(b)
        )
        recs["hw_bits"].append(_bits(hw.distance))
        recs["sw_bits"].append(_bits(sw.distance))
        recs["hw_label"].append(hw.label)
        recs["sw_label"].append(sw.label)
        recs["oracle_label"].append(olabel)
        recs["oracle_d"].append(d)
        recs["rel_err"].append(abs(hw.distance - d) / abs(d) if d else np.inf)
        recs["kappa"].append(mass / abs(d) if d else np.inf)
        recs["margin_ok"].append(abs(d) > 1e-3 * (1.0 + abs(d)))
    return {k: np.array(v) for k, v in recs.items()}


def test_c01_latency_anchor_exactness():
    expected = [
        ("interface-only", 100, 248, 82460),
        ("interface-only", 100, 346, 114898),
        ("pipeline-inner", 100, 248, 14138),
        ("pipeline-inner", 100, 346, 19626),
        ("unroll-inner", 100, 248, 9876),
        ("unroll-inner", 100, 346, 13698),
        ("unroll-most", 100, 248, 8366),
        ("unroll-most", 100, 346, 11600),
        ("partition-cyclic-16", 100, 248, 9336),
        ("partition-cyclic-16", 100, 346, 12960),
        ("pipeline-inner", 250, 61, 3830),
        ("unroll-most", 250, 61, 2653),
    ]
    for directive, regime, s, cycles in expected:
        est = estimate_latency(s, 27, directive, regime)
        assert est.latency_cycles == cycles, (directive, regime, s)
        assert est.validity == "anchor_exact"
    _pass(1, "latency anchor exactness")


def test_c02_closed_form_latency_decompositions():
    # verified arithmetic first, independent of any code under test
    assert (11 * 28 + 23) * 248 + 372 == 82460
    assert (11 * 28 + 23) * 346 + 372 == 114898
    assert 2 * 248 * 28 + 250 == 14138
    assert 2 * 346 * 28 + 250 == 19626
    for s in (248, 346):
        base = estimate_latency(s, 27, "interface-only", 100)
        assert base.latency_cycles == (11 * 28 + 23) * s + 372
        pipe = estimate_latency(s, 27, "pipeline-inner", 100)
        assert pipe.latency_cycles == 2 * s * 28 + 250
    _pass(2, "closed-form latency decompositions")


def test_c03_cosim_report_replication():
    model, dataset = make_synthetic(61, 27, 7)
    test = dataset.instances[0]

    rep = cosim(model, test, "pipeline-inner", ClockPair(250, 250))
    assert rep.results_match
    assert rep.cycle_source == "measured_anchor"
    assert rep.hw_cycles == 3693
    assert rep.sw_cycles == 77367
    assert rep.sw_cycles_optimized == 22398
    assert rep.cycle_speedup_plain == pytest.approx(20.95, abs=0.01)
    assert rep.cycle_speedup_optimized == pytest.approx(6.06, abs=0.01)
    assert rep.hw_time_us == pytest.approx(14.77, abs=0.01)

    rep = cosim(model, test, "pipeline-inner", ClockPair(250, 666.67))
    assert rep.hw_cycles == 2815
    assert rep.sw_cycles == 28968
    assert rep.time_speedup_plain == pytest.approx(3.86, abs=0.01)
    _pass(3, "co-simulation report replication")


def test_c04_host_cpu_model_extrapolation():
    cycles = estimate_arm_cycles(346, 27, (100, 666.67))
    time_us = cycles / 100.0  # 100 MHz timer base
    assert abs(time_us - 4483.53) / 4483.53 < 0.05
    assert cycles == 430967  # frozen value of the two-anchor affine fit
    _pass(4, "host-cpu cycle model extrapolation")


def test_c05_hw_sw_bit_equivalence(pool):
    assert len(pool["hw_bits"]) == POOL_SIZE
    assert np.array_equal(pool["hw_bits"], pool["sw_bits"])
    assert np.array_equal(pool["hw_label"], pool["sw_label"])
    _pass(5, "hw/sw bit equivalence on 10^4 random pairs")


def test_c06_double_precision_oracle_agreement(pool):
    margin = pool["margin_ok"]
    assert margin.sum() >= 9_900  # the filter keeps essentially everything
    assert np.array_equal(
        pool["hw_label"][margin], pool["oracle_label"][margin]
    ), "binary32 labels must match the double-precision oracle on all margins"

    # distance agreement additionally needs bounded cancellation: kappa is
    # the accumulated magnitude over |d|, and error <= ~2u*kappa relative
    bounded = margin & (pool["kappa"] <= 64.0)
    assert bounded.sum() >= 2_000
    worst = pool["rel_err"][bounded].max()
    assert worst <= 1e-5, f"worst relative distance error {worst:.3e}"
    _pass(6, "double-precision oracle agreement")


def _svmlight_text(model: TrainedModel) -> str:
    lines = [
        "SVM-light Version V6.02",
        "0 # kernel type",
        "3 # kernel parameter -d",
        "1 # kernel parameter -g",
        "1 # kernel parameter -s",
        "1 # kernel parameter -r",
        "empty# kernel parameter -u",
        f"{model.feature_count} # highest feature index",
        f"{model.sv_count} # number of training documents",
        f"{model.sv_count + 1} # number of support vectors plus 1",
        f"{format_real(model.bias)} # threshold b",
    ]
    for ay, row in zip(model.alpha_y, model.support_vectors):
        pairs = " ".join(
            f"{i}:{format_real(v)}" for i, v in enumerate(row, start=1)
        )
        lines.append(f"{format_real(ay)} {pairs} #")
    return "\n".join(lines) + "\n"


def test_c07_serialization_round_trip():
    rng = np.random.default_rng(7_0707)
    for _ in range(1_000):
        s = int(rng.integers(1, 51))
        fl = int(rng.integers(1, 33))
        scale = float(rng.choice([1.0, 1e3, 1e-3]))
        model = TrainedModel(
            (rng.uniform(-1, 1, (s, fl)) * scale).astype(np.float32),
            (rng.uniform(-1, 1, s) * scale).astype(np.float32),
            float(np.float32(rng.uniform(-1, 1))),
        )
        inst = TestInstance(rng.uniform(-1, 1, fl).astype(np.float32))
        frame = emit_stream(model, inst)
        model2, inst2 = parse_stream(frame, s, fl)
        assert model2 == model and inst2 == inst  # bit-pattern equality
        assert emit_stream(model2, inst2) == frame

    # text formats: the same model through both parsers, same distances
    rng = np.random.default_rng(99)
    for _ in range(25):
        s, fl = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        model = TrainedModel(
            rng.uniform(-1, 1, (s, fl)).astype(np.float32),
            rng.uniform(-1, 1, s).astype(np.float32),
            float(np.float32(rng.uniform(-1, 1))),
        )
        via_light = parse_svmlight_model(_svmlight_text(model))
        via_native = parse_native_model(*emit_native_model(model))
        inst = TestInstance(rng.uniform(-1, 1, fl).astype(np.float32))
        d1 = run_software_reference(via_light, inst).distance
        d2 = run_software_reference(via_native, inst).distance
        assert _bits(d1) == _bits(d2)
    _pass(7, "serialization round trip")


def test_c08_pareto_front_soundness():
    cal = default_calibration()
    for s, regime in ((61, 250), (248, 100), (346, 100)):
        ests = {}
        for token in (d for d, mhz in cal.dsp if mhz == regime):
            try:
                ests[token] = estimate_design(s, 27, token, regime)
            except (UnknownCalibration, FlMismatch):
                continue

        def cost(e):
            return (e.latency_cycles, e.dsp, e.lut, e.ff, e.bram)

        expected = {
            a
            for a, ea in ests.items()
            if not any(
                b != a
                and all(x <= y for x, y in zip(cost(eb), cost(ea)))
                and any(x < y for x, y in zip(cost(eb), cost(ea)))
                for b, eb in ests.items()
            )
        }
        got = {e.directive.name for e in explore(s, 27, regime)}
        assert got == expected, f"S={s} front mismatch"
    _pass(8, "pareto front soundness")


def test_c09_synthetic_accuracy_pipeline():
    for s, fl, seed in ((61, 27, 7), (248, 27, 11), (346, 27, 5), (1, 1, 3)):
        model, dataset = make_synthetic(s, fl, seed)
        report = batch_classify(model, dataset)
        assert report.accuracy_percent == 100.0, (s, fl, seed)
        assert report.correct == report.total == len(dataset)
    _pass(9, "synthetic accuracy pipeline")


def test_c10_power_lookup():
    assert estimate_power("model1", 1) == 1.756
    assert estimate_power("modelS", 1) == 1.686
    assert estimate_power("model2", 2) == 2.125
    _pass(10, "power lookup")
