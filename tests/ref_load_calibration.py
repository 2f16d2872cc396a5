"""Reference for synth.load_calibration's refusals.

The loader as it was when it checked every cell itself: kind by kind and
record by record in document order, each record's shape and then its
cells, so the first fault in the document is the one reported.  The
per-column checks are the package's own (synth._SCHEMA); only the order
in which they run is kept here.
"""

from __future__ import annotations

import json

from svmsoc.errors import CalibrationError
from svmsoc.synth import _SCHEMA, CalibrationSet


def _record(kind: str, cells):
    try:
        row_type, checks, _ = _SCHEMA[kind]
    except KeyError:
        raise ValueError(f"unknown record kind {kind!r}") from None
    if not isinstance(cells, (list, tuple)):
        raise ValueError(f"{kind} record must be a list, got {type(cells).__name__}")
    if len(cells) != len(checks):
        raise ValueError(f"{kind} record has {len(checks)} columns, got {len(cells)}")
    for name, check, cell in zip(row_type._fields, checks, cells):
        try:
            check(cell)
        except ValueError as exc:
            raise ValueError(f"{kind} {name}: {exc}") from None
    return row_type(*[check(cell) for check, cell in zip(checks, cells)])


def load_calibration(text: str) -> CalibrationSet:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CalibrationError(f"calibration file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("version") != 2:
        raise CalibrationError(
            "calibration file version must be 2; write it again with `svmsoc fit`"
        )
    try:
        records = []
        for kind, rows in doc.items():
            if kind == "version":
                continue
            if kind not in _SCHEMA:
                raise ValueError(f"unknown record kind {kind!r}")
            if not isinstance(rows, list):
                raise ValueError(f"{kind!r} must be a list of records")
            records += [_record(kind, cells) for cells in rows]
        return CalibrationSet(tuple(records))
    except ValueError as exc:
        raise CalibrationError(f"calibration file is malformed: {exc}") from None
