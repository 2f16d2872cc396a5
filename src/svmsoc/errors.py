"""Exception types shared across the package.

Parsing and estimation are total over text/bytes input: anything malformed
raises one of these instead of leaking ValueError/IndexError from helpers.
"""

from __future__ import annotations

__all__ = [
    "SvmSocError",
    "UnsupportedKernel",
    "MalformedModel",
    "MalformedInstance",
    "MalformedDataset",
    "DimensionError",
    "FrameLengthError",
    "CalibrationError",
    "UnknownCalibration",
    "FlMismatch",
    "UnknownDesign",
]


def cut(text: str) -> str:
    """text, or its first 40 characters plus "…" when it is longer.

    Messages show what they reject, and a line of a data file or a cell of
    a calibration file can run to thousands of characters.  Shared by the
    modules; not exported.
    """
    return text if len(text) <= 40 else text[:40] + "…"


def quote(text: str) -> str:
    """repr of a token or line of input, cut first."""
    return repr(cut(text))


class SvmSocError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedKernel(SvmSocError):
    """Model file declares a kernel other than linear (type 0)."""


class MalformedModel(SvmSocError):
    """Model file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedInstance(SvmSocError):
    """Test vector text is not Fl finite reals."""


class MalformedDataset(SvmSocError):
    """Labeled CSV is ragged, has bad labels, or non-finite features."""


class DimensionError(SvmSocError):
    """Model and instance/dataset disagree on feature count."""

    def __init__(self, side: str, features: int, other: str, other_features: int):
        super().__init__(f"{side} has {features} features, {other} has {other_features}")


class FrameLengthError(SvmSocError):
    """Stream frame word count does not match S*Fl + 1 + S + Fl, or its byte
    count is not a whole number of words; unit names what was counted."""

    def __init__(self, expected: int, actual: int, unit: str = "stream words"):
        self.expected = expected
        self.actual = actual
        super().__init__(f"expected {expected} {unit}, got {actual}")


class CalibrationError(SvmSocError):
    """Base class for cost-model calibration problems."""


class UnknownCalibration(CalibrationError):
    """No calibration entry covers the requested lookup."""


class FlMismatch(CalibrationError):
    """Requested feature count differs from the calibrated one.  Only a latency
    on its per-feature line bridges it, so a design estimate there names the BRAM."""


class UnknownDesign(CalibrationError):
    """Power lookup for a (model, design) pair that was never measured."""
