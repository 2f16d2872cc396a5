"""Scalar reference for model_io's array formatter.

The formatter the package shipped first, one numpy call per value: the
shortest decimal string that parses back to the same binary32.  It ignores
numpy's print options, so the array formatter must match it under any.
"""

from __future__ import annotations

import numpy as np


def format_real(value) -> str:
    v = np.float32(value)
    if np.isnan(v):
        return "nan"
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return np.format_float_positional(v, unique=True, trim="0")
