"""Driver-contract guard: every queries() entry at sf0.001.  Oracle-backed
queries are checked against oracle_sql() via DuckDB (FAST first, then the
rest of the catalogue), each nq_* query against an exact figure.  The same
sweep at sf0.01 is tools/check_queries.py."""

import os
import sys

import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]
FAST = ["q01_pricing_summary", "q13_sha256_documents",
        "q17_lang_profiles",
        "q140_documents_expectations",
        "q145_daily_psi_js", "q146_value_drift_ks"]


@pytest.fixture(scope="module")
def harness(ray_session):
    import duckdb

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return entrymod, con


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns), kind="stable").reset_index(drop=True)


@pytest.mark.parametrize("name", FAST)
def test_query_matches_oracle(harness, name):
    import pyarrow as pa

    import ray.data as rd

    entrymod, con = harness
    res = entrymod.queries()[name](SF)
    if isinstance(res, rd.Dataset):
        res = res.to_pandas()
    elif isinstance(res, pa.Table):
        res = res.to_pandas()
    sql = con.sql(entrymod.oracle_sql()[name]).df()
    assert sorted(res.columns) == sorted(sql.columns)
    assert len(res) == len(sql)
    pd.testing.assert_frame_equal(canon(res), canon(sql), check_dtype=False,
                                  rtol=1e-9, atol=1e-9)


def test_entry_returns_verdicts(harness):
    entrymod, _ = harness
    out = entrymod.entry()
    assert len(out) >= 2
    assert {"table", "n_rows", "n_violations", "passed"} <= set(out.columns)


def test_every_query_has_callable(harness):
    entrymod, _ = harness
    qs = entrymod.queries()
    assert len(qs) >= 35
    for name, fn in qs.items():
        assert callable(fn), name
    for name in entrymod.oracle_sql():
        assert name in qs


def _sweep_names():
    from driftray.pipelines.queries import ORACLE_SQL

    return [n for n in ORACLE_SQL if n not in FAST]


@pytest.mark.parametrize("name", _sweep_names())
def test_catalogue_query_matches_oracle(harness, name):
    """The rest of the oracle-backed catalogue, compared as above.  The
    oracle must not emit HUGEINT columns: the driver's result hash tells
    int128 from int64 even where the values are equal."""
    entrymod, con = harness
    rel = con.sql(entrymod.oracle_sql()[name])
    assert not [t for t in rel.types if "HUGEINT" in str(t).upper()]
    test_query_matches_oracle(harness, name)


def _run(entrymod, name):
    return entrymod.queries()[name](SF)


def test_nq_hll_distinct_users_within_sketch_error(harness):
    entrymod, con = harness
    got = _run(entrymod, "nq_hll_distinct_users").set_index("event_type")
    exact = con.sql("SELECT event_type, COUNT(DISTINCT user_id) AS n "
                    "FROM events GROUP BY event_type").df().set_index("event_type")
    assert sorted(got.index) == sorted(exact.index)
    rel = (got["n_users_approx"] - exact["n"]).abs() / exact["n"]
    assert (rel <= 0.05).all(), rel.to_dict()


def test_nq_daily_drift_covers_every_day(harness):
    import numpy as np

    entrymod, con = harness
    got = _run(entrymod, "nq_daily_drift").sort_values("window")
    days = con.sql("SELECT date_trunc('day', ts) AS window, "
                   "COUNT(value) AS n, COUNT(*) - COUNT(value) AS n_nan "
                   "FROM events GROUP BY 1 ORDER BY 1").df()
    assert list(pd.to_datetime(got["window"])) == list(pd.to_datetime(days["window"]))
    assert got["n"].tolist() == days["n"].tolist()
    assert got["n_nan"].tolist() == days["n_nan"].tolist()
    assert np.isnan(got["psi"].iloc[0]) and np.isnan(got["js"].iloc[0])
    rest = got.iloc[1:]
    assert (rest["psi"] >= 0).all()
    assert ((rest["js"] >= 0) & (rest["js"] <= np.log(2) + 1e-6)).all()


def test_nq_drift_events_half_means_match_exact(harness):
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    entrymod, _ = harness
    got = _run(entrymod, "nq_drift_events").set_index("event_type")
    t = pq.read_table(f"{SF}/events.parquet", columns=["ts", "event_type", "value"])
    df = t.to_pandas()
    ts = pc.cast(t["ts"], "int64").to_numpy()
    df["half"] = (ts >= (int(ts.min()) + int(ts.max())) // 2).astype(int)
    means = df.groupby(["event_type", "half"])["value"].mean().unstack()
    assert sorted(got.index) == sorted(means.index)
    assert (got["mean_first"] - means[0]).abs().max() <= 1e-4
    assert (got["mean_second"] - means[1]).abs().max() <= 1e-4
    assert got["ks_stat"].between(0, 1).all()


def test_nq_drift_events_psi_js_match_exact_histograms(harness):
    """PSI and JS per event_type from exact histograms of each half: 32
    bins of [0, 500] folded into 8 cells of 4, plus under- and overflow,
    each cell's share floored at 1e-6 and renormalized."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    entrymod, _ = harness
    got = _run(entrymod, "nq_drift_events").set_index("event_type")
    t = pq.read_table(f"{SF}/events.parquet", columns=["ts", "event_type", "value"])
    ts = pc.cast(t["ts"], "int64").to_numpy()
    second = ts >= (int(ts.min()) + int(ts.max())) // 2
    types = t["event_type"].to_numpy(zero_copy_only=False)
    values = t["value"].to_numpy()

    def shares(v):
        bins = np.histogram(v, np.linspace(0, 500, 33))[0]
        cells = np.r_[(v < 0).sum(), bins.reshape(8, 4).sum(axis=1), (v > 500).sum()]
        p = np.clip(cells / cells.sum(), 1e-6, None)
        return p / p.sum()

    assert sorted(got.index) == sorted(set(types))
    for name in got.index:
        p = shares(values[(types == name) & ~second])
        q = shares(values[(types == name) & second])
        m = (p + q) / 2
        psi = np.sum((q - p) * np.log(q / p))
        js = (np.sum(p * np.log(p / m)) + np.sum(q * np.log(q / m))) / 2
        assert (got.loc[name, "psi"], got.loc[name, "js"]) == (round(psi, 4), round(js, 4))


def test_nq_unusual_ratio_events_replays_ordered_flags(harness):
    from driftray.drift import unusual_ratio_verdicts

    entrymod, con = harness
    got = _run(entrymod, "nq_unusual_ratio_events")
    flags = con.sql("SELECT value > 200.0 AS u FROM events "
                    "ORDER BY event_id").df()["u"].to_numpy(dtype=bool)
    want = unusual_ratio_verdicts(flags)
    assert got["n_rows"].sum() == len(flags)
    assert got["unusual_count"].sum() == int(flags.sum())
    assert list(zip(got["start_row"], got["end_row"], got["unusual_count"],
                    got["drift"])) == [
        (v.start_row, v.end_row, v.unusual_count, v.drift) for v in want]


@pytest.mark.parametrize("name,table,key", [
    ("nq_validate_documents", "documents", "doc_id"),
    ("nq_validate_events", "events", "event_id"),
])
def test_nq_validate_matches_expectation_oracle(harness, name, table, key):
    """Verdict rows agree with the table's expectation oracle plus the
    duplicate rows of its unique key."""
    entrymod, con = harness
    oracle = {"documents": "q140_documents_expectations",
              "events": "q173_events_expectations"}[table]
    expected = int(con.sql(entrymod.oracle_sql()[oracle]).df()["n_violations"].sum())
    n, n_distinct = con.sql(
        f"SELECT COUNT(*), COUNT(DISTINCT {key}) FROM {table}").fetchone()
    got = _run(entrymod, name)
    assert got["n_rows"].sum() == n
    assert got["n_violations"].sum() == expected + (n - n_distinct)
    assert (got["passed"] == (got["n_violations"] == 0)).all()
    assert got["quality_score"].between(0, 1).all()
