"""Exhaustive check of format_reals's array path against Dragon4.

Every binary32 v with f32(1e-4) <= |v| < 1e9, both signs (725,182,498
values), is printed by `svmsoc.model_io.format_reals` in arrays of at least
_ARRAY_MIN values, so the array path prints each value it admits, and the
text is compared with numpy's Dragon4 as `tests/ref_format.py` prints it:
`np.format_float_positional(v, unique=True, trim="0")`.  This sweep is what
shows the array path's digits right; the formatter does not parse them back.

Usage, from the repository root (numpy and the standard library only):

    PYTHONPATH=src python tests/sweep_format.py [--state PATH]

The range is split into 88 chunks, one binade of one sign each, run by two
worker processes.  Each finished chunk is recorded in the state
file (default .sweep-format-state.json at the repository root), so a run
that is stopped resumes where it left off.  The state is kept only for the
same model_io source and numpy version; delete the file to start over.  The
script prints the number of values checked and the number that differ, with
the sha256 of the model_io source and the numpy version they were checked
with, and exits 1 if any differ.  A full run takes 9 to 15 minutes on two
cores.
Not part of tier-1: pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import multiprocessing
from pathlib import Path

import numpy as np

from svmsoc import model_io

ROOT = Path(__file__).resolve().parents[1]
LOW = int(np.float32(1e-4).view(np.uint32))  # the first bit pattern of the range
HIGH = int(np.float32(1e9).view(np.uint32))  # 1e9 is a binary32; the range stops below it
SIGN = 1 << 31
BLOCK = 1 << 16  # values given to format_reals at a time
SHOWN = 10  # differing values a chunk reports
JOBS = 2  # worker processes


def chunks() -> list[tuple[str, int, int]]:
    """The sweep's chunks, one binade of one sign each: name, first and stop bit pattern."""
    out = []
    for sign, mark in ((0, "+"), (SIGN, "-")):
        for biased in range(LOW >> 23, ((HIGH - 1) >> 23) + 1):
            first, stop = max(LOW, biased << 23), min(HIGH, (biased + 1) << 23)
            out.append((f"{mark}2^{biased - 127}", sign | first, sign | stop))
    return out


def compare(first: int, stop: int) -> tuple[int, int, list[str]]:
    """Bit patterns first..stop-1: how many, how many differ from Dragon4, the first SHOWN's texts.

    The patterns are given to format_reals in pieces of BLOCK values or more,
    and never fewer than _ARRAY_MIN, so the array path prints them.
    """
    size = stop - first
    if size < model_io._ARRAY_MIN:
        raise ValueError(f"{size} values do not reach the array path")
    pieces = max(1, size // BLOCK)
    edges = [first + size * k // pieces for k in range(pieces + 1)]
    count, shown = 0, []
    for a, b in zip(edges, edges[1:]):
        bits = np.arange(a, b, dtype=np.uint32)
        values = bits.view(np.float32)
        got = model_io.format_reals(values)
        want = [np.format_float_positional(v, unique=True, trim="0") for v in values]
        if got != want:
            differ = [f"{p:#010x} prints {g}, Dragon4 {w}"
                      for p, g, w in zip(bits, got, want) if g != w]
            count += len(differ)
            shown += differ[: SHOWN - len(shown)]
    return size, count, shown


def _run(chunk: tuple[str, int, int]):
    name, first, stop = chunk
    start = time.perf_counter()
    return name, *compare(first, stop), time.perf_counter() - start


def _fingerprint() -> str:
    source = Path(model_io.__file__).read_bytes()
    return f"{hashlib.sha256(source).hexdigest()} numpy {np.__version__}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state", type=Path, default=ROOT / ".sweep-format-state.json",
                        help="where finished chunks are recorded")
    args = parser.parse_args(argv)
    fingerprint = _fingerprint()
    done = {}
    if args.state.exists():
        saved = json.loads(args.state.read_text())
        if saved.get("fingerprint") == fingerprint:
            done = saved["chunks"]
    todo = [c for c in chunks() if c[0] not in done]
    print(f"{len(done)} chunks already done, {len(todo)} to run", flush=True)
    partial = args.state.with_name(args.state.name + ".partial")
    with multiprocessing.get_context("spawn").Pool(JOBS) as pool:
        for name, checked, count, shown, seconds in pool.imap_unordered(_run, todo):
            done[name] = [checked, count, shown]
            partial.write_text(json.dumps({"fingerprint": fingerprint, "chunks": done}))
            partial.replace(args.state)  # a run stopped mid-write leaves the last state whole
            print(f"{name:8} {checked:9} checked {count:9} differ {seconds:7.1f} s", flush=True)
    for name, (_, _, shown) in sorted(done.items()):
        for line in shown:
            print(f"{name}: {line}")
    checked = sum(c[0] for c in done.values())
    differing = sum(c[1] for c in done.values())
    print(f"checked {checked} values, {differing} differ from Dragon4"
          f" (model_io sha256 {fingerprint})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
