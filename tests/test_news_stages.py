"""The news scan's stages on inputs the multi-scan fixture does not
reach: sources spread over many blocks out of arrival order, null keys,
and a scan without rows."""

import numpy as np
import pandas as pd
import pyarrow as pa


def _blocks(df: pd.DataFrame, n: int):
    import ray.data as rd

    return rd.from_pandas([df.iloc[i::n].reset_index(drop=True)
                           for i in range(n)])


def test_per_source_limit_exact_across_blocks(ray_session):
    from driftray.pipelines.news import per_source_limit

    rng = np.random.default_rng(7)
    n = 400
    df = pd.DataFrame({
        "seq": rng.permutation(n),
        "source": rng.choice(["a", "b", "c", None], size=n, p=[.6, .25, .1, .05]),
    })
    got = per_source_limit(_blocks(df, 5), limit=20).to_pandas()
    want = (df.sort_values("seq")
              .groupby("source", dropna=False, sort=False).head(20))
    assert got["seq"].tolist() == want["seq"].tolist()
    assert got.groupby("source", dropna=False).size().max() == 20


def test_drop_duplicates_first_wins_with_null_keys():
    from driftray.pipelines.news import drop_duplicates

    t = pa.table({"title": ["x", "x", None, None, "y", "x"],
                  "url": ["u", "u", "v", "v", None, "w"],
                  "seq": [0, 1, 2, 3, 4, 5]})
    assert drop_duplicates(t, ["title", "url"])["seq"].to_pylist() == [0, 2, 4, 5]


def test_empty_scan_returns_no_rows_and_keeps_store(ray_session):
    import ray.data as rd

    from driftray.fixtures import headlines
    from driftray.pipelines.news import news_scan
    from driftray.state import SeenKeysStore

    store = SeenKeysStore(np.array([1, 2, 3], dtype=np.uint64))
    ds = rd.from_arrow(headlines(n_scans=1, per_scan=10)).filter(
        lambda r: r["scan_id"] < 0)
    out, store = news_scan(ds, store)
    assert out.num_rows == 0
    assert len(store) == 3
