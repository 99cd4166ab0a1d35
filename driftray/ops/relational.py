"""The relational helper of the validation engine's uniqueness check.

``duplicate_values_sorted`` finds the duplicated values among the 8-byte
key hashes that ``pipeline.uniqueness_violations`` collects on the driver
(sort + adjacent-equal scan).
"""

from __future__ import annotations

import numpy as np


def duplicate_values_sorted(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values that occur at least twice in ``values``:
    an in-memory sort and an adjacent-equal scan.  An all-unique input
    returns an empty array, so callers keep their early-out.

    This replaces ``groupby(col).count()`` for duplicate detection: Ray's
    aggregate pays per-GROUP overhead, which melts when nearly every key
    is unique (measured 61 s for 640 k distinct keys in one partition vs
    0.8 s for a sort+scan)."""
    v = np.sort(values)
    return np.unique(v[1:][v[1:] == v[:-1]])
