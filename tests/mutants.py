"""Mutation catalogue: code broken on purpose, which tier-1 must notice.

Each entry names a file under src/svmsoc, the exact text to replace (it must
occur there exactly once), its replacement, the reason the change is a
fault and the test modules that kill it (by default the one named after its
file: tests/test_synth.py for synth.py).  For each entry the script copies
src/, tests/ and pyproject.toml into a temporary directory and applies the
entry there.  It runs the entry's test modules with -x first, and tier-1
with -x only when the mutant survives them; --full runs tier-1 alone.  An
entry is killed when a run fails, and survives when tier-1 passes.  An
entry marked equivalent changes no behaviour that a test can observe; it
is expected to survive and its reason says why.

Usage, from the repository root (standard library only; tier-1 needs
pytest and hypothesis):

    python tests/mutants.py                # every entry
    python tests/mutants.py NAME ...       # the named entries
    python tests/mutants.py --file synth.py  # the entries on one file
    python tests/mutants.py --full ...     # tier-1 for every entry, as before
    python tests/mutants.py --list

The exit status is 1 when an entry that is not equivalent survives, or when
an entry's text is not found exactly once; 0 otherwise.  Not part of tier-1:
pytest does not collect this file.  Adding an entry is free; removing or
changing one is recorded in CHANGES.md with its reason, like any other check.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# pytest without the test that each entry's text is found: a mutant copy lacks its own
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--deselect", "tests/test_structure.py::test_every_catalogue_entry_finds_its_text_once"]
TIER1 = [*PYTEST, "--continue-on-collection-errors"]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/svmsoc
    old: str
    new: str
    reason: str
    equivalent: bool = False
    tests: tuple[str, ...] = ()  # test modules that kill it, under tests/; () for the default

    @property
    def modules(self) -> tuple[str, ...]:
        """The test modules run first: the entry's, or the one named after its file."""
        return self.tests or (f"test_{Path(self.file).stem}.py",)


CATALOGUE = [
    # -- the binary32 contract: fixed order, one rounding per operation
    Mutant(
        "reference-many-lane-unrounded", "driver.py",
        "        add(acc, row, out=acc)\n        acc32[...] = acc\n        acc[...] = acc32\n",
        "        add(acc, row, out=acc)\n",
        "the reference's many-lane sum must round to binary32 after every add",
    ),
    Mutant(
        "reference-one-lane-unrounded", "driver.py",
        "        acc32[0] = acc + term\n        acc = acc32[0]\n",
        "        acc = acc + term\n",
        "the reference's one-lane sum must round to binary32 after every add",
    ),
    Mutant(
        "reference-dot-products-unrounded", "driver.py",
        "(_weight_vector(model) * test.values).astype(np.float32).tolist()",
        "(_weight_vector(model) * test.values).tolist()",
        "each product of the reference's dot product is rounded to binary32 before it is added",
    ),
    Mutant(
        "reference-bias-unrounded", "driver.py",
        '    distance, limit = array("f", (raw - model.bias, float(threshold)))\n',
        '    distance, limit = raw - model.bias, array("f", (float(threshold),))[0]\n',
        "the reference rounds the bias subtraction to binary32, as the accelerator does",
        tests=("test_driver.py", "test_acceptance.py"),
    ),
    Mutant(
        "accelerator-pairwise-sum", "accel.py",
        "    return np.add.accumulate(terms, axis=0)[-1]\n",
        "    return np.add.reduce(terms, axis=0)\n",
        "np.add.reduce adds pairwise: another association than first to last",
    ),
    Mutant(
        "accelerator-bias-unrounded", "accel.py",
        "    distance = _F32(raw_distance) - _F32(bias)\n",
        "    distance = float(raw_distance) - float(_F32(bias))\n",
        "the accelerator subtracts the bias in binary32; a binary64 difference rounds"
        " to the same binary32, so only a binary64 bit comparison sees it",
    ),
    Mutant(
        "accelerator-negative-zero-seed", "accel.py",
        "    terms = np.zeros((rows.shape[0] + 1, *rows.shape[1:]), dtype=_F32)\n",
        "    terms = np.full((rows.shape[0] + 1, *rows.shape[1:]), -0.0, dtype=_F32)\n",
        "a -0.0 seed keeps a leading -0.0 product, where a zeroed accumulator gives +0.0",
    ),
    Mutant(
        "decide-strict-compare", "accel.py",
        "    return 1 if distance >= _F32(threshold) else -1, distance\n",
        "    return 1 if distance > _F32(threshold) else -1, distance\n",
        "a distance equal to the threshold labels +1",
    ),
    Mutant(
        "accelerator-overflow-raises", "accel.py",
        '    with np.errstate(all="ignore"):  # one for the frame\'s every step\n',
        '    with np.errstate(over="raise"):\n',
        "an overflowing frame flows through IEEE arithmetic to an infinite distance",
    ),
    Mutant(
        "reference-threshold-unrounded", "driver.py",
        '    distance, limit = array("f", (raw - model.bias, float(threshold)))\n',
        '    distance, limit = array("f", (raw - model.bias,))[0], float(threshold)\n',
        "the reference must compare against the binary32 threshold, as the accelerator does",
    ),
    Mutant(
        "batch-threshold-unrounded", "driver.py",
        "        labels = np.where(distances >= float(f32(threshold)), 1, -1)\n",
        "        labels = np.where(distances >= float(threshold), 1, -1)\n",
        "batch_classify must compare against the binary32 threshold, as the accelerator does",
    ),
    Mutant(
        "stream-frame-writeable", "model_io.py",
        "    words.flags.writeable = False\n    frame = object.__new__(StreamFrame)",
        "    frame = object.__new__(StreamFrame)",
        "emit_stream's frame holds read-only words, as the StreamFrame constructor stores them",
    ),
    # -- parsers
    Mutant(
        "binary32-ties-unsettled", "model_io.py",
        "    ties = _binary32_ties(values)\n    if ties.size:\n",
        "    ties = _binary32_ties(values)\n    if False:\n",
        "a decimal on a binary32 midpoint in binary64 must round from its text",
    ),
    Mutant(
        "svmlight-duplicate-index", "model_io.py",
        "                if idx in seen:\n",
        "                if False:\n",
        "an SVM-Light line naming one feature twice is malformed",
    ),
    Mutant(
        "svmlight-duplicate-unrecorded", "model_io.py",
        "                seen.add(idx)\n",
        "",
        "an index is a repeat only if the line's earlier pairs are recorded",
    ),
    Mutant(
        "svmlight-index-range-unchecked", "model_io.py",
        "                if not 1 <= idx <= feature_count:\n",
        "                if False:\n",
        "an index outside 1..Fl lands in another row's column, or beyond the matrix",
    ),
    Mutant(
        "svmlight-weight-finiteness-unchecked", "model_io.py",
        "            if not math.isfinite(weight):\n",
        "            if False:\n",
        "a non-finite alpha*y weight is named on its line, before the line's pairs",
    ),
    Mutant(
        "svmlight-value-finiteness-unchecked", "model_io.py",
        "                if not math.isfinite(val):\n",
        "                if False:\n",
        "a non-finite feature value is named on its line, before the pairs after it",
    ),
    Mutant(
        "svmlight-dense-non-ascii", "model_io.py",
        "        if not block.isascii():\n            return None\n",
        "",
        "a non-ASCII character is whitespace or a digit to `str.split`, `int` or"
        " `float`, which the byte checks cannot see",
    ),
    Mutant(
        "svmlight-dense-control-bytes", "model_io.py",
        "        if text.translate(None, _PRINTABLE):  # a control character\n"
        "            return None\n",
        "",
        "a tab or other control byte splits tokens for `str.split` and the reader"
        " where the separator check sees none",
    ),
    Mutant(
        "svmlight-dense-separators-skipped", "model_io.py",
        "        if text.translate(None, _NOT_SEPARATOR) != per_row * count:\n"
        "            return None\n",
        "",
        "only `w 1:v ... Fl:v` rows put each colon after its own index on its own line",
    ),
    Mutant(
        "svmlight-dense-any-digits-index", "model_io.py",
        "        if not (buf[at] == want).all():\n",
        "        if not ((buf[at] == want) | (buf[at] - 48 < 10) & (want - 48 < 10)).all():\n",
        "an index spelled with other digits, such as `2:v 1:v` or `01:v`, names"
        " another column or reads through `int`",
    ),
    Mutant(
        "svmlight-dense-shape-unchecked", "model_io.py",
        "        if values is None or values.shape != (count, feature_count + 1):\n",
        "        if values is None:\n",
        "a row with an empty value reads one value short, and numpy broadcasts a"
        " one-column block across the table",
    ),
    Mutant(
        "reader-keeps-non-finite", "model_io.py",
        "    return values if np.isfinite(values).all() else None\n",
        "    return values\n",
        "the C reader's non-finite values go line by line, which names the faulty"
        " line; a model or instance would refuse them without one",
    ),
    Mutant(
        "cut-window-zero", "model_io.py",
        "    ulps[field] = np.ldexp(1e-14, 1075 - field) + 2\n",
        "    ulps[field] = 0\n",
        "a cut moves a value up to 1e-14 toward zero, past a binary32 midpoint it lay"
        " beyond: every value that near one is read again, not only one on it",
    ),
    Mutant(
        "cut-range-guard-dropped", "model_io.py",
        "    ulps = np.full(2048, np.inf)\n",
        "    ulps = np.zeros(2048)\n",
        "below 2**-126 a value's low bits say nothing of binary32 midpoints: a cut"
        " decimal that reads 0 may round to the least subnormal",
    ),
    Mutant(
        "cut-exponent-guard-dropped", "model_io.py",
        '    exponent = (buf | 0x20) == ord("e")\n    if exponent.any():\n',
        '    exponent = (buf | 0x20) == ord("e")\n    if False:\n',
        "an exponent scales what the cut moves: 1e-14 off the mantissa of"
        " 1.6...e1 moves it 1e-13, past the window",
    ),
    Mutant(
        "cut-integer-runs", "model_io.py",
        "    if runs[0] or (runs[1:] > dot_or_digit[: -_KEEP - 1]).any():\n",
        "    if False:\n",
        "a run of 15 digits that is no fraction, such as an integer part, is no"
        " place to cut",
    ),
    Mutant(
        "cut-keeps-13", "model_io.py",
        "_KEEP = 14  # fraction digits a cut keeps\n",
        "_KEEP = 13  # fraction digits a cut keeps\n",
        "a cut to 13 digits moves a decimal up to 1e-13, past the 1e-14 window",
    ),
    Mutant(
        "cut-keeps-15", "model_io.py",
        "_KEEP = 14  # fraction digits a cut keeps\n",
        "_KEEP = 15  # fraction digits a cut keeps\n",
        "equivalent: a cut to 15 digits moves a decimal less than 1e-15, which the"
        " 1e-14 window covers; it only cuts fewer texts",
        equivalent=True,
    ),
    Mutant(
        "cut-labels-kept", "model_io.py",
        "    if table is not None and cut and any(",
        "    if False and any(",
        "a label is compared with +/-1 in binary64, which a cut does not keep:"
        " 1.000000000000001 reads 1 cut",
    ),
    Mutant(
        "cut-label-bound-one-long", "model_io.py",
        'any(len(ln) - ln.rfind(",") > _KEEP + 3 for ln in cut)',
        'any(len(ln) - ln.rfind(",") > _KEEP + 4 for ln in cut)',
        "a label of \"1.\" and _KEEP + 1 digits is cut: 1.000000000000009 reads 1 cut",
    ),
    Mutant(
        "cut-blocks-split-at-newline", "model_io.py",
        'raw.decode("ascii").splitlines())',
        'raw.decode("ascii").split("\\n"))',
        "the reader's rows are the lines str.splitlines ends, at \\r, \\v and \\f too,"
        " as the per-line path reads them",
    ),
    # -- the formatter: Dragon4's text, from the array path or from Dragon4
    Mutant(
        "format-print-options-unpinned", "model_io.py",
        "    with np.printoptions(legacy=False):\n        if arr.size < _ARRAY_MIN",
        "    if True:\n        if arr.size < _ARRAY_MIN",
        "a legacy print mode prints 6 digits, which do not round-trip",
    ),
    Mutant(
        "format-exponent-form-kept", "model_io.py",
        '    if "e" in "".join(texts):  # nan and inf hold no "e"\n',
        "    if False:\n",
        "numpy prints values below 1e-4 and from 1e16 in exponent form; the text is positional",
    ),
    Mutant(
        "format-even-bounds-excluded", "model_io.py",
        "    half[even] = np.nextafter(half[even], np.inf)  # |t - x| < that: within or on the bound\n",
        "",
        "a decimal on the half-ulp bound of a value with an even significand rounds to"
        " it, and Dragon4 takes it when it is shorter",
    ),
    Mutant(
        "format-power-of-two-kept", "model_io.py",
        "(mag >= 1e-4) & (mag < 1e9) & (bits & 0x7FFFFF != 0)",
        "(mag >= 1e-4) & (mag < 1e9)",
        "below a power of two the next binary32 is half as far, so Dragon4 narrows the"
        " lower bound there: the search prints 2**25 and 2**26 with other digits",
    ),
    Mutant(
        "format-range-unbounded", "model_io.py",
        "(mag >= 1e-4) & (mag < 1e9) & (bits & 0x7FFFFF != 0)",
        "(bits & 0x7FFFFF != 0)",
        "the text frame holds 12 fraction digits, and a value below 1e-4 may need more",
    ),
    Mutant(
        "read-cap-one-byte-short", "cli.py",
        "                data += f.read(MAX_INPUT_BYTES - size)",
        "                data += f.read(MAX_INPUT_BYTES - size - 1)",
        "reading only up to the cap cannot tell a larger input, which is then truncated",
    ),
    Mutant(
        "read-cap-trusts-the-stated-size", "cli.py",
        "            if len(data) == size + 1:",
        "            if False:",
        "a pipe or device states size 0, and a file may grow after its size is read",
    ),
    Mutant(
        "read-cap-refuses-at-the-cap", "cli.py",
        "        if max(size, len(data)) > MAX_INPUT_BYTES:\n",
        "        if max(size, len(data)) >= MAX_INPUT_BYTES:\n",
        "an input of exactly MAX_INPUT_BYTES bytes is within the cap",
    ),
    Mutant(
        "read-cap-reads-before-refusing", "cli.py",
        " if size <= MAX_INPUT_BYTES else b\"\"",
        "",
        "a file whose stated size is past the cap is refused before a byte of it is read",
    ),
    # -- value types
    Mutant(
        "eq-answers-other-types", "model_io.py",
        "        if not isinstance(other, TrainedModel):\n            return NotImplemented\n",
        "        if not isinstance(other, TrainedModel):\n            return False\n",
        "__eq__ must leave another type to the other operand's __eq__",
    ),
    Mutant(
        "stream-frame-keeps-2d-words", "model_io.py",
        '        w = np.array(self.words, dtype="<u4", copy=True).reshape(-1)\n',
        '        w = np.array(self.words, dtype="<u4", copy=True)\n',
        "a frame's words are one flat run of S*Fl + 1 + S + Fl words, whatever shape"
        " the caller passes",
    ),
    Mutant(
        "gen-negative-seed-to-numpy", "model_io.py",
        "    if seed < 0:\n",
        "    if False:\n",
        "a negative seed is refused with a message that names it",
        tests=("test_cli.py",),
    ),
    Mutant(
        "directive-unknown-prefix-accepted", "synth.py",
        "        if takes_factor is None:\n",
        "        if False:\n",
        "a DirectiveConfig is one of the known directives",
    ),
    Mutant(
        "cell-refusal-rewritten-uncut", "synth.py",
        "isinstance(value, str) and cut(value) != value and str(exc)",
        "isinstance(value, str) and str(exc)",
        "a cell errors.cut leaves whole keeps Python's own text, which int() cuts at 200"
        " characters of its repr",
    ),
    Mutant(
        "directive-factor-unbounded", "synth.py",
        "            if self.factor > MAX_COUNT:\n",
        "            if False:\n",
        "a factor is a count like any other, and a message quotes it whole",
    ),
    Mutant(
        "record-conflict-quoted-uncut", "synth.py",
        "    return tuple(cut(c) if isinstance(c, str) else c for c in cells)\n",
        "    return tuple(cells)\n",
        "a conflicting record's message quotes each text cell cut, as every message does",
    ),
    Mutant(
        "directive-str-drops-factor", "synth.py",
        "    def __str__(self) -> str:\n        return self.name\n",
        "    def __str__(self) -> str:\n        return self.prefix\n",
        "a directive prints as its full name, factor included, as cosim reads it back",
        tests=("test_driver.py",),
    ),
    # -- CLI exit codes
    Mutant(
        "calibration-error-exits-1", "cli.py",
        "    except CalibrationError as exc:\n        print(f\"error: {exc}\", file=sys.stderr)\n"
        "        return 2\n",
        "    except CalibrationError as exc:\n        print(f\"error: {exc}\", file=sys.stderr)\n"
        "        return 1\n",
        "an unusable calibration exits 2, apart from input errors",
    ),
    Mutant(
        "cosim-cycle-columns-swapped", "driver.py",
        "    sw_cycles, sw_opt = fit.counts(s, fl, (0, 1))  # plain, then optimized\n",
        "    sw_cycles, sw_opt = fit.counts(s, fl, (1, 0))  # plain, then optimized\n",
        "the report's plain and optimized processor cycles come from their own columns",
    ),
    Mutant(
        "cosim-timer-refusal-dropped", "driver.py",
        "        arm_timer_mhz(pairing, cal)  # refuses the uncalibrated pairing\n",
        "        pass\n",
        "an uncalibrated pairing is refused with arm_timer_mhz's UnknownCalibration,"
        " not a KeyError",
    ),
    Mutant(
        "cosim-strict-arm-anchor-unchecked", "driver.py",
        "    if strict and s not in fit.points:\n",
        "    if False:\n",
        "strict refuses processor cycles read off a line rather than measured",
    ),
    Mutant(
        "clock-pair-unchecked", "driver.py",
        "    def __post_init__(self):\n        clock_key(self)\n",
        "",
        "a clock that is not positive and finite is refused where the pair is made",
    ),
    Mutant(
        "classify-render-modes-swapped", "cli.py",
        "    if args.machine:\n        lines = [\n",
        "    if not args.machine:\n        lines = [\n",
        "--machine prints key=value rows, the default the human text",
    ),
    Mutant(
        "classify-first-line-misses-a-break", "cli.py",
        "\\x1c-\\x1e\\x85",
        "\\x1c-\\x1e",
        "str.splitlines ends a line at \\x85: a comma past it is not on the first line",
    ),
    # -- cost models and their refusal order
    Mutant(
        "explore-strict-dominance", "synth.py",
        "o != cost and o[1] <= dsp and o[2] <= lut and o[3] <= ff and o[4] <= bram",
        "all(a < b for a, b in zip(o, cost))",
        "a design no worse anywhere and better somewhere dominates; strictly better"
        " everywhere keeps dominated designs on the front",
    ),
    Mutant(
        "dsp-mean-floored", "synth.py",
        "            dsp[design] = counts, round(sum(distinct) / len(distinct))\n",
        "            dsp[design] = counts, sum(distinct) // len(distinct)\n",
        "the DSP count away from an anchor is the rounded mean of the distinct counts",
    ),
    Mutant(
        "fit-tag-bounds-interpolated", "synth.py",
        "INTERPOLATED if lo < sv_count < hi else EXTRAPOLATED",
        "INTERPOLATED if lo <= sv_count <= hi else EXTRAPOLATED",
        "equivalent: lo and hi are anchors, and Fit.at returns anchor_exact at an anchor"
        " before it reaches this tag",
        equivalent=True,
    ),
    Mutant(
        "fit-single-anchor-before-fl", "synth.py",
        "        if feature_count != self.feature_count:\n",
        "        if self.slope is None and sv_count not in self.points:\n"
        "            anchor = f\"{self.what(columns[0])} has a single anchor at S={self.lo}\"\n"
        "            raise UnknownCalibration(f\"{anchor}; scaling to S={sv_count} has no"
        " supporting data\")\n"
        "        if feature_count != self.feature_count:\n",
        "Fit.at refuses another Fl before a single anchor at another S",
    ),
    Mutant(
        "design-bridged-fl-names-latency", "synth.py",
        "        fit.at(sv_count, feature_count, (1,))\n",
        "        fit.at(sv_count, feature_count, (0,))\n",
        "where the latency bridges another Fl, the BRAM is the figure that refuses",
    ),
    Mutant(
        "bridge-accepts-any-slope", "synth.py",
        "        if abs(fit.slope[0] - (a * (fit.feature_count + 1) + c)) < 1e-6:\n",
        "        if True:\n",
        "a latency bridges another Fl only where its slope lies on PER_FEATURE_SLOPES",
    ),
    # -- the calibration set's column check, its per-column fallback and its fault walk
    Mutant(
        "column-count-accepts-bool", "synth.py",
        "        set(map(type, cells)) == {int} and least <= min(cells)",
        "        set(map(type, cells)) <= {int, bool} and least <= min(cells)",
        "True is equal to 1, but a count is an int, and the cell check refuses a bool",
    ),
    Mutant(
        "column-amount-accepts-nan", "synth.py",
        "0 <= min(cells) and sum(cells) < math.inf",
        "0 <= min(cells) and max(cells) < math.inf",
        "min and max skip a nan that is neither first nor alone; a sum of the column is nan",
    ),
    Mutant(
        "column-mixed-types-keyed-by-value", "synth.py",
        "        if set(map(type, cells)) != {form}:\n            return False\n",
        "",
        "1.0 and True are one value, as are 100 and 100.0: a column holding both would check"
        " only the first and keep the other unchecked",
    ),
    Mutant(
        "column-identity-unchecked", "synth.py",
        "                if len(set(zip(*columns[:identity]))) != len(rows):\n"
        "                    return None\n",
        "",
        "two records that share an identity are one record, or a conflict to name",
    ),
    Mutant(
        "column-respelling-dropped", "synth.py",
        "            if any(map(is_not, columns, cells)) or len(",
        "            if len(",
        "a directive is kept as its DirectiveConfig name, a clock rounded to 0.01 MHz",
    ),
    Mutant(
        "column-fallback-skipped", "synth.py",
        "column if _WHOLE[check](column) else list(map(check, column))",
        "column",
        "a column not in checked form is checked cell by cell: kept as it is, an int BRAM"
        " stays an int and a faulty cell passes",
    ),
    Mutant(
        "checked-width-unchecked", "synth.py",
        "    if len(rec) != len(checks):  # a tuple made past its type's constructor\n",
        "    if False:\n",
        "a record of another width is refused with ValueError: a long one would be cut to its"
        " type's width, a short one fail in its constructor with TypeError",
    ),
    Mutant(
        "column-repeats-kept", "synth.py",
        "                rows = list(dict.fromkeys(map(row_type._make, zip(*columns))))",
        "                rows = list(map(row_type._make, zip(*columns)))",
        "the column path keeps an identical repeated record once; kept twice, it is a clash"
        " the fault walk finds no fault in",
    ),
    Mutant(
        "fault-conflict-before-cells", "synth.py",
        "    for rec in [_checked(rec) for rec in records]:\n",
        "    for rec in map(_checked, records):\n",
        "the fault walk checks every record before any conflict, so a faulty cell after a"
        " conflict is the fault named",
    ),
    Mutant(
        "explore-fl-skip-dropped", "synth.py",
        "        if feature_count != fit.feature_count or fit.slope is None and",
        "        if fit.slope is None and",
        "equivalent: Fit.at then raises FlMismatch, a CalibrationError, which explore's"
        " finiteness except skips alike; the skip saves only the exception's cost",
        equivalent=True,
    ),
    # -- the one-pass set build, its per-regime table and the front's instances
    Mutant(
        "directive-factor-prefix-as-name", "synth.py",
        "    if type(directive) is str and _DIRECTIVES.get(directive) is False:\n",
        "    if type(directive) is str and directive in _DIRECTIVES:\n",
        "only a name that takes no factor is its own name: a bare unroll-partial is unknown",
    ),
    Mutant(
        "distinct-column-type-unchecked", "synth.py",
        "        if set(map(type, cells)) != {form}:\n",
        "        if len(set(map(type, cells))) != 1:\n",
        "a clock column of ints equals its checked floats, but the set keeps clocks as floats",
    ),
    Mutant(
        "groups-feature-counts-dropped", "synth.py",
        "            found[0].add(f)\n",
        "",
        "each group's feature counts are collected: one Fl is fitted, two are refused",
    ),
    Mutant(
        "fit-two-anchor-intercept-unchecked", "synth.py",
        "            if not all(map(math.isfinite, intercept)):",
        "            if False:",
        "a two-anchor line that is not finite is refused when it is fitted",
    ),
    Mutant(
        "explore-range-before-regime", "synth.py",
        "    if rows:  # an uncalibrated regime is refused first\n",
        "    if True:\n",
        "an uncalibrated regime is refused before an S or Fl out of range, as estimate_design"
        " refuses an uncalibrated group first",
    ),
    Mutant(
        "explore-other-regimes-read", "synth.py",
        "    rows = cal.regimes.get(regime, ())\n",
        "    rows = [row for table in cal.regimes.values() for row in table]\n",
        "explore's candidates are the directives calibrated at the requested regime",
    ),
    Mutant(
        "design-bram-unclamped", "synth.py",
        "bram if bram > 0.0 else 0.0",
        "bram",
        "a BRAM line below 0 reads 0, as max(0.0, bram) did (923 candidates of the sweep)",
    ),
    Mutant(
        "model-id-any-cell", "synth.py",
        "    if isinstance(model_id, bool) or not isinstance(model_id, (str, int)):\n",
        "    if False:\n",
        "a model id is text or an integer: a list or null cell is refused, not loaded as text",
    ),
    Mutant(
        "fit-counts-unclamped", "synth.py",
        "        return [max(0, int(round(v))) for v in values]\n",
        "        return [int(round(v)) for v in values]\n",
        "a processor-cycle line below 0 reads 0 cycles",
    ),
    Mutant(
        "front-entry-fields-swapped", "synth.py",
        '    e["dsp"], e["ff"], e["lut"] = dsp, ff, lut\n',
        '    e["dsp"], e["ff"], e["lut"] = dsp, lut, ff\n',
        "a front member's estimate holds each figure in its own field",
    ),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _apply(dest: Path, mutant: Mutant) -> None:
    path = dest / "src" / "svmsoc" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise LookupError(f"its text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def _pytest(command: list[str], dest: Path) -> tuple[bool, float]:
    """Whether the command fails in the mutant copy, and the seconds it took."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=dest, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return proc.returncode != 0, time.perf_counter() - start


def run(mutant: Mutant, full: bool = False) -> tuple[bool, str, float]:
    """Whether the mutant is killed, by which run, and the seconds the runs took.

    Its test modules run first, unless full; tier-1 runs when they do not kill it.
    """
    with tempfile.TemporaryDirectory(prefix="svmsoc-mutant-") as tmp:
        dest = Path(tmp)
        _copy(dest)
        _apply(dest, mutant)
        seconds = 0.0
        if not full:
            killed, seconds = _pytest([*PYTEST, *(f"tests/{m}" for m in mutant.modules)], dest)
            if killed:
                return True, " ".join(mutant.modules), seconds
        killed, more = _pytest(TIER1, dest)
        return killed, "tier-1", seconds + more


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="entries to run (default: all)")
    parser.add_argument("--file", help="run the entries on this file under src/svmsoc")
    parser.add_argument("--full", action="store_true",
                        help="run tier-1 alone for each entry, not its test modules first")
    parser.add_argument("--list", action="store_true", help="list the entries and exit")
    args = parser.parse_args(argv)
    known = {m.name: m for m in CATALOGUE}
    if args.list:
        for m in CATALOGUE:
            print(f"{m.name}  ({m.file}){'  equivalent' if m.equivalent else ''}: {m.reason}")
        return 0
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown entries: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] or CATALOGUE
    if args.file:
        chosen = [m for m in chosen if m.file == args.file]
    bad = 0
    start = time.perf_counter()
    print(f"{'entry':34} {'result':22} {'killed by':16} {'seconds':>7}")
    for mutant in chosen:
        try:
            killed, by, seconds = run(mutant, args.full)
        except LookupError as exc:
            print(f"{mutant.name:34} {'stale':22} {'-':16} {'-':>7}  {exc}")
            bad += 1
            continue
        result = "killed" if killed else "survived"
        if killed == mutant.equivalent:  # a survivor, or an "equivalent" entry a test kills
            bad += 1
            result += "!" if killed else ""
        if mutant.equivalent:
            result += " (equivalent)"
        by = by if killed else "-"
        print(f"{mutant.name:34} {result:22} {by:16} {seconds:7.1f}", flush=True)
    print(f"{len(chosen)} entries in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
