"""Local replica of the driver's correctness harness.

Runs every ``queries()`` entry at sf0.01 and compares SQL-expressible ones
against ``oracle_sql()`` via DuckDB: row count, column names, and
order-insensitive value equality (columns sorted by name, rows sorted by
all columns).  Non-SQL queries get a rows-only check: at least one row.

Usage: python tools/check_queries.py [--sf /root/testdata/sf0.01] [--only q01...]
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    assert isinstance(res, pd.DataFrame), type(res)
    return res


def canon(df):
    """Order-insensitive canonical form: columns sorted by name, rows sorted."""
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns), kind="stable").reset_index(drop=True)


def compare(ray_df, sql_df) -> tuple[bool, str]:
    import pandas as pd

    if sorted(ray_df.columns) != sorted(sql_df.columns):
        return False, f"columns: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}"
    if len(ray_df) != len(sql_df):
        return False, f"rows: ray={len(ray_df)} sql={len(sql_df)}"
    a, b = canon(ray_df), canon(sql_df)
    try:
        pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=False,
                                      rtol=1e-9, atol=1e-9)
    except AssertionError as e:
        return False, str(e).split("\n")[0] + " | " + "\n".join(str(e).split("\n")[1:4])
    return True, "ok"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("--only", nargs="*", default=None)
    args = ap.parse_args()

    import duckdb

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs, sqls = entrymod.queries(), entrymod.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{args.sf}/{t}.parquet'")

    names = args.only or list(qs)
    n_pass = n_fail = 0
    for name in names:
        t0 = time.perf_counter()
        try:
            ray_df = to_pandas(qs[name](args.sf))
        except Exception:
            print(f"FAIL {name}: query raised\n{traceback.format_exc()}")
            n_fail += 1
            continue
        dt = time.perf_counter() - t0
        if name in sqls:
            rel = con.sql(sqls[name])
            # the driver's hash is representation-SENSITIVE where this
            # harness's check_dtype=False compare is not: a HUGEINT
            # (int128) oracle column hashes differently from the engine's
            # int64 even when every value is equal.  Catch the class here
            # (DuckDB promotes SUM(BIGINT) and windowed //,% to HUGEINT)
            # instead of discovering it in a driver round.
            hug = [c for c, t in zip(rel.columns, rel.types)
                   if "HUGEINT" in str(t).upper()]
            sql_df = rel.df()
            if hug:
                n_fail += 1
                print(f"FAIL {name}  oracle emits HUGEINT column(s) {hug} "
                      "— CAST(... AS BIGINT) in ORACLE_SQL")
                continue
            ok, msg = compare(ray_df, sql_df)
            status = "PASS" if ok else "FAIL"
            if ok:
                n_pass += 1
            else:
                n_fail += 1
            print(f"{status} {name}  rows={len(ray_df)}  {dt:.1f}s  {msg if not ok else ''}")
        else:
            ok = len(ray_df) > 0
            n_pass += ok
            n_fail += not ok
            print(f"{'ROWS' if ok else 'FAIL'} {name}  rows={len(ray_df)}  {dt:.1f}s"
                  f"{'' if ok else '  returned no rows'}")
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
