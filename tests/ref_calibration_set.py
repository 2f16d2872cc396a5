"""Reference for the record check of a synth.CalibrationSet built from records.

The set as it was when it checked its records one record at a time: in
record order, each record's cells in column order, every record before any
conflict, then the first record whose identity an earlier record holds
with other cells.  The per-cell checks are the package's own
(synth._SCHEMA); only the order in which they run is kept here.  The
records it lets through, each once and grouped by kind, are handed to the
package's set, which fits them.
"""

from __future__ import annotations

from svmsoc.errors import cut
from svmsoc.synth import _KIND, _SCHEMA, CalibrationSet


def _checked(rec):
    kind = _KIND.get(type(rec))
    if kind is None:
        raise ValueError(f"a {type(rec).__name__} is not a calibration record")
    row_type, checks, _ = _SCHEMA[kind]
    cells: list = []
    try:
        for check, cell in zip(checks, rec):
            cells.append(check(cell))
    except ValueError as exc:
        raise ValueError(f"{kind} {row_type._fields[len(cells)]}: {exc}") from None
    return row_type(*cells)


def _cells(cells: tuple) -> tuple:
    return tuple(cut(c) if isinstance(c, str) else c for c in cells)


def calibration_set(records) -> CalibrationSet:
    table: dict = {}
    kept: dict = {row_type: [] for row_type in _KIND}
    for rec in [_checked(rec) for rec in records]:
        kind = _KIND[type(rec)]
        key = (kind, *rec[: _SCHEMA[kind][2]])
        prev = table.get(key)
        if prev is None:
            table[key] = rec
            kept[type(rec)].append(rec)
        elif prev != rec:
            raise ValueError(f"conflicting {kind} records {_cells(prev)} and {_cells(rec)}")
    return CalibrationSet(tuple(rec for rows in kept.values() for rec in rows))
