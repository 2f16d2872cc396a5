"""Line reach: the src/svmsoc lines that tier-1 never executes.

The script runs tier-1 in this process under a `sys.settrace` line tracer
that records the lines executed in src/svmsoc.  It finds each module's
executable lines by compiling the module and reading `co_lines()` of every
code object in it.  A function's first line (its `def`, or its first
decorator) belongs to the enclosing code, which executes it; the
function's own frame reports no line event there.  Every executable line
that no test executed is listed, and each must be in ALLOWED, with the
reason it is unreached.  The garbage collector is held off while each test
runs (TracerWatch says why).  After each test a pytest hook checks that the
tracer is still installed: a test that displaced it is named, and the
tracer is put back.  Tests run under the Hypothesis profile "check"
(tests/conftest.py), so every run draws the same examples.

Usage, from the repository root (standard library only; tier-1 needs pytest
and hypothesis):

    python tests/line_reach.py                 # tier-1
    python tests/line_reach.py tests/test_cli.py  # other pytest arguments

The exit status is 1 when a line outside ALLOWED is unreached, when an
ALLOWED entry matches no unreached line, when a test displaced the tracer,
or when the tests fail; 0 otherwise.  Tracing about doubles tier-1's time.
Not part of tier-1: pytest does not collect this file.  Changing ALLOWED
is recorded in CHANGES.md with its reason, like any other check.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "svmsoc"

# (file under src/svmsoc, the line's text without indentation): why no test runs it
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "the script entry point, run only in subprocesses,"
    " which the tracer does not follow; tests call main() in process",
}


def executable_lines(path: Path) -> set[int]:
    """The line numbers of path that hold code, from every code object's co_lines()."""
    module = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    stack = [module]
    while stack:
        code = stack.pop()
        found = {line for _start, _end, line in code.co_lines() if line}  # None or 0: no line
        if code.co_flags & 0x2 and not code.co_name.startswith("<"):  # CO_NEWLOCALS
            found.discard(code.co_firstlineno)  # a def's line runs in the enclosing code
        lines |= found
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class TracerWatch:
    """A pytest plugin that holds the garbage collector off while each test runs, then names
    each test after which sys.gettrace() is not the tracer, and installs the tracer again.

    A collection may run a Python finalizer at any depth.  At the recursion limit the call
    into the trace function then raises RecursionError, and CPython unsets a trace function
    that raises: a collection inside json's C decoder did so in test_rejects_garbage[deep]
    (tests/test_synth.py).  With the collector held off, it collects between tests, where
    the stack is shallow, and such a test keeps its lines.
    """

    def __init__(self, tracer):
        self.tracer, self.lost = tracer, []

    def pytest_runtest_logstart(self, nodeid, location):
        gc.disable()

    def pytest_runtest_logfinish(self, nodeid, location):
        gc.enable()
        if sys.gettrace() is not self.tracer:
            self.lost.append(nodeid)
            sys.settrace(self.tracer)


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]], list[str]]:
    """pytest's exit code for args, the lines executed in each package file, and the
    tests after which the tracer had to be installed again."""
    import pytest  # imported before tracing starts: only the package's lines are kept

    hits: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + os.sep
    ours: dict[str, bool] = {}  # co_filename: whether it is a package file

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            ours[filename] = os.path.realpath(filename).startswith(prefix)
            hits.setdefault(filename, set())
        return local if ours[filename] else None

    watch = TracerWatch(calls)
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(args, plugins=[watch])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_file: dict[str, set[int]] = {}
    for filename, lines in hits.items():
        by_file.setdefault(Path(filename).resolve().name, set()).update(lines)
    return int(code), by_file, watch.lost


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    code, hits, lost = traced_run(["-q", "-p", "no:cacheprovider", "--hypothesis-profile=check",
                                   "--continue-on-collection-errors", *args])
    bad = 0
    if code:
        print(f"the tests failed (pytest exit {code}): the reach below is not tier-1's")
        bad += 1
    for nodeid in lost:
        bad += 1
        print(f"{nodeid}: the tracer was displaced during this test and installed again")
    allowed = dict(ALLOWED)
    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        text = path.read_text().splitlines()
        total += len(lines)
        for lineno in sorted(lines - hits.get(path.name, set())):
            unreached += 1
            source = text[lineno - 1].strip()
            reason = allowed.pop((path.name, source), None)
            if reason is None:
                bad += 1
                print(f"{path.name}:{lineno}: unreached: {source}")
            else:
                print(f"{path.name}:{lineno}: allowed: {source}  ({reason})")
    for (name, source), _reason in allowed.items():
        bad += 1
        print(f"{name}: stale allow-list entry, no unreached line reads: {source}")
    print(f"{unreached} of {total} executable lines unreached")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
