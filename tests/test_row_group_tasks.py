"""Plain row-group tasks: ``ops.zonemap.map_row_groups``, and the table
uniqueness verify that ``run_validation`` runs on them, checked against
the Ray Data path of ``uniqueness_violations``."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from driftray.pipeline import load_table_report, run_validation, uniqueness_violations
from driftray.spec import TableSpec

SPEC = TableSpec(name="u", unique_key=("k1", "k2"), order_column="ord")


def _two_files(tmp_path):
    d = tmp_path / "rg"
    d.mkdir()
    for i, n in enumerate((70, 45)):
        pq.write_table(pa.table({"a": pa.array(np.arange(n) + 100 * i, pa.int64()),
                                 "b": pa.array([f"s{j % 7}" for j in range(n)])}),
                       str(d / f"f{i}.parquet"), row_group_size=20)
    return sorted(str(p) for p in d.iterdir())


def test_map_row_groups_equals_direct_reads(ray_session, tmp_path):
    from driftray.ops.zonemap import map_row_groups, row_groups_of

    paths = _two_files(tmp_path)
    plan = row_groups_of(paths)
    assert [f for f, _ in plan] == [paths[0]] * 4 + [paths[1]] * 3
    for columns in (None, ["b"]):
        got = map_row_groups(plan, lambda t: t, columns)
        want = [pq.ParquetFile(f).read_row_group(g, columns=columns) for f, g in plan]
        assert len(got) == len(want)
        assert all(a.equals(b) for a, b in zip(got, want))
    # outputs come back in plan order, not completion order
    sums = map_row_groups(plan[::-1], lambda t: int(sum(t["a"].to_pylist())), ["a"])
    assert sums == [sum(pq.ParquetFile(f).read_row_group(g)["a"].to_pylist())
                    for f, g in plan[::-1]]


def test_map_row_groups_empty_plan(ray_session):
    from driftray.ops.zonemap import map_row_groups

    assert map_row_groups([], lambda t: t) == []


def test_map_row_groups_raises_fn_error(ray_session, tmp_path):
    from driftray.ops.zonemap import map_row_groups, row_groups_of

    def boom(t):
        raise ValueError(f"bad row group of {t.num_rows} rows")

    with pytest.raises(ValueError, match="bad row group of 20 rows"):
        map_row_groups(row_groups_of(_two_files(tmp_path))[:1], boom)


def _key_table(rng, window: int, n: int, pool) -> pa.Table:
    """``n`` rows of ``window`` whose (k1, k2) keys are drawn from
    ``pool``: repeats inside and across windows, null components."""
    pick = [pool[i] for i in rng.integers(0, len(pool), n)]
    return pa.table({
        "window_id": pa.array([window] * n, pa.int64()),
        "k1": pa.array([k[0] for k in pick], pa.string()),
        "k2": pa.array([k[1] for k in pick], pa.int64()),
        "ord": pa.array(rng.permutation(n) + 1000 * window, pa.int64()),
        "v": pa.array(rng.normal(size=n)),
    })


def _pool(rng, n: int = 150):
    keys = [(f"r{int(a)}", int(b)) for a, b in zip(rng.integers(0, 60, n),
                                                  rng.integers(0, 4, n))]
    return keys + [(None, 1), (None, None), ("r1", None)] * 8


def _table_outputs(out: str):
    tdir = os.path.join(out, "table")
    viol = pq.read_table(os.path.join(tdir, "uniqueness_violations.parquet"))
    win = pq.read_table(os.path.join(tdir, "uniqueness_winners.parquet"))
    return (sorted(zip(viol["row_ref"].to_pylist(), viol["detail"].to_pylist())),
            load_table_report(out)["extra_rows"],
            sorted(zip(win["key"].to_pylist(), win["win_order"].to_pylist())))


def _dataset_outputs(paths):
    dup, extra, winners = uniqueness_violations(rd.read_parquet(paths), SPEC)
    return (sorted(zip(dup["row_ref"].to_pylist(), dup["detail"].to_pylist())),
            extra,
            sorted(zip(winners["key"].to_pylist(), winners["win_order"].to_pylist())))


def _last_jobs(out: str) -> dict:
    with open(os.path.join(out, "run_lineage.jsonl")) as f:
        return json.loads(f.read().splitlines()[-1])["jobs"]


def test_plain_task_verify_matches_dataset_path(ray_session, tmp_path):
    """Several files and row groups, a row group holding two windows, keys
    repeated across windows, null key components and an order column."""
    rng = np.random.default_rng(7)
    pool = _pool(rng)
    d = tmp_path / "keys"
    d.mkdir()
    tables = [_key_table(rng, w, 120, pool) for w in range(4)]
    pq.write_table(pa.concat_tables(tables[:2]), str(d / "p0.parquet"),
                   row_group_size=90)
    pq.write_table(pa.concat_tables(tables[2:]), str(d / "p1.parquet"),
                   row_group_size=50)
    paths = sorted(str(p) for p in d.iterdir())
    n_row_groups = sum(pq.ParquetFile(p).metadata.num_row_groups for p in paths)

    out = str(tmp_path / "out")
    run_validation(str(d), out, SPEC)
    want = _dataset_outputs(paths)
    assert want[1] > 0 and any(k.startswith("<null>") for k, _ in want[0])
    assert _table_outputs(out) == want
    jobs = _last_jobs(out)
    assert jobs["uniqueness"] == {"ray_data": 0, "row_group_tasks": n_row_groups}
    assert sum(j["ray_data"] for j in jobs.values()) == 1

    # windows without a persisted run: the tasks hash the keys themselves
    for w in range(4):
        os.remove(os.path.join(out, f"window={w}", "key_hashes.npy"))
    os.remove(os.path.join(out, "table", "_DONE"))
    assert run_validation(str(d), out, SPEC) == []
    assert _table_outputs(out) == want


def test_added_key_column_is_null_padded(ray_session, tmp_path):
    """Two schema groups: the later files add key column ``k2``, which the
    earlier files' rows hold as null, as the kernel pass's union sees it."""
    rng = np.random.default_rng(11)
    pool = _pool(rng, 60)
    d = tmp_path / "evolved"
    d.mkdir()
    tables = [_key_table(rng, w, 100, pool) for w in range(4)]
    for w, t in enumerate(tables):
        if w < 2:
            t = t.drop_columns(["k2"])
        pq.write_table(t, str(d / f"part-{w}.parquet"), row_group_size=40)

    out = str(tmp_path / "out")
    run_validation(str(d), out, SPEC)
    padded = pa.concat_tables(tables[:2]).set_column(
        2, "k2", pa.nulls(200, pa.int64()))
    keys = pa.concat_tables([padded, *tables[2:]]).select(["k1", "k2"]).to_pandas()
    assert load_table_report(out)["extra_rows"] == int(keys.duplicated().sum())
    assert _last_jobs(out)["uniqueness"] == {"ray_data": 0, "row_group_tasks": 12}
