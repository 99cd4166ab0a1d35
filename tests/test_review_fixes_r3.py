"""Regression tests for the self-review findings of the continuation
session: schema inspection and windowed drift series."""


# --- continuation-session review fixes (ranking/watermark/schema batch) ---


def test_schema_inspect_does_not_consume_drift(tmp_path):
    """Inspection leaves the stored baseline untouched;
    only a successful run advances it (review: CLI ate drift evidence)."""
    import json
    import os

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from driftray.schema_drift import persist_snapshot, record_and_diff
    from driftray.spec import ColumnSpec, TableSpec

    out = str(tmp_path / "out")
    spec = TableSpec(name="t", columns=[ColumnSpec("a", required=True)])
    p1 = str(tmp_path / "r1.parquet")
    pq.write_table(pa.Table.from_pandas(
        pd.DataFrame({"a": [1], "b": [2]}), preserve_index=False), p1)
    r = record_and_diff(out, p1, spec)
    assert r["drift"] is None
    assert not os.path.exists(os.path.join(out, "schema.json"))
    persist_snapshot(out, r["schema"])          # run succeeded

    p2 = str(tmp_path / "r2.parquet")
    pq.write_table(pa.Table.from_pandas(
        pd.DataFrame({"a": [1]}), preserve_index=False), p2)
    # inspect twice: drift must be reported BOTH times
    for _ in range(2):
        r2 = record_and_diff(out, p2, spec)
        assert r2["drift"]["drifted"] and r2["drift"]["removed"] == ["b"]


def test_windowed_drift_series_counts_nans_separately(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from driftray.drift import windowed_drift_series

    df = pd.DataFrame({
        "ts": pd.to_datetime(["2024-01-01"] * 4 + ["2024-01-02"] * 4),
        "v": [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, None, float("nan")],
    })
    out = windowed_drift_series(rd.from_pandas(df), "ts", "v",
                                np.array([0.0, 2.5, 5.0]))
    assert out["n"].tolist() == [4, 2]          # scored values only
    assert out["n_nan"].tolist() == [0, 2]      # nulls surfaced, not binned
