"""Regression tests for the round-3 ADVICE.md findings (fixed in round 4).

drift.windowed_drift_series — unsupported units raise at the API
   boundary, not deep inside a map_batches task.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

import ray.data as rd


def test_windowed_drift_series_unit_validation(ray_session):
    from driftray.drift import windowed_drift_series

    ds = rd.from_items([{"ts": pd.Timestamp("2024-01-01 03:00"), "v": 1.0},
                        {"ts": pd.Timestamp("2024-01-02 04:00"), "v": 2.0}])
    edges = np.array([0.0, 1.5, 3.0])
    with pytest.raises(ValueError, match="unsupported unit"):
        windowed_drift_series(ds, "ts", "v", edges, unit="week")
    out = windowed_drift_series(ds, "ts", "v", edges, unit="hour")
    assert len(out) == 2  # two hourly windows
