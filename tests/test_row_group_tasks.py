"""Plain row-group tasks: ``ops.zonemap.map_row_groups``, and the table
uniqueness verify and kernel pass that ``run_validation`` runs on them,
checked against oracles over the tables ``pq.read_table`` reads."""

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from driftray.pipeline import load_table_report, run_validation
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
    from driftray.sources import read_footers

    paths = _two_files(tmp_path)
    plan = row_groups_of(read_footers(str(tmp_path / "rg")))
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
    from driftray.sources import read_footers

    def boom(t):
        raise ValueError(f"bad row group of {t.num_rows} rows")

    _two_files(tmp_path)
    with pytest.raises(ValueError, match="bad row group of 20 rows"):
        map_row_groups(row_groups_of(read_footers(str(tmp_path / "rg")))[:1], boom)


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


def _oracle_outputs(paths):
    """``_table_outputs`` computed in pandas from ``pq.read_table``: each
    key (``checks.join_key``) held by more than one row, its row count
    and its least order value."""
    from driftray.checks import join_key

    t = pa.concat_tables(pq.read_table(p) for p in paths)
    df = pd.DataFrame({"key": join_key(t, list(SPEC.unique_key)),
                       "ord": t["ord"].to_numpy()})
    n = df.groupby("key").size()
    n = n[n > 1]
    first = df.groupby("key")["ord"].min()
    return (sorted((k, f"{c} occurrences (kept first by order)") for k, c in n.items()),
            int((n - 1).sum()),
            sorted((k, int(first[k])) for k in n.index))


def _last_jobs(out: str) -> dict:
    with open(os.path.join(out, "run_lineage.jsonl")) as f:
        return json.loads(f.read().splitlines()[-1])["jobs"]


def _run_records(out: str) -> dict:
    """Every file under ``out`` outside the window and table directories
    (the run lineage, the schema snapshot, the alert history), by path."""
    got = {}
    for root, dirs, names in os.walk(out):
        dirs[:] = [d for d in dirs if d != "table" and not d.startswith("window=")]
        for name in names:
            with open(os.path.join(root, name), "rb") as f:
                got[os.path.relpath(os.path.join(root, name), out)] = f.read()
    return got


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
    want = _oracle_outputs(paths)
    assert want[1] > 0 and any(k.startswith("<null>") for k, _ in want[0])
    assert _table_outputs(out) == want
    jobs = _last_jobs(out)
    assert jobs["uniqueness"] == {"row_group_tasks": n_row_groups}
    # the kernel pass is plain tasks too, one per planned row group
    assert jobs["validate_chunks"]["row_group_tasks"] == n_row_groups
    assert jobs["validate_chunks"]["row_groups"] == n_row_groups

    # with nothing pending, a stale table result is recomputed from the
    # persisted runs, and the run records nothing else
    records = _run_records(out)
    assert "run_lineage.jsonl" in records and "schema.json" in records
    os.remove(os.path.join(out, "table", "_DONE"))
    assert run_validation(str(d), out, SPEC) == []
    assert _table_outputs(out) == want
    assert _run_records(out) == records

    # a window marked done without its run is refused by name, and the
    # table result is left as it was
    os.remove(os.path.join(out, "window=2", "key_hashes.npy"))
    os.remove(os.path.join(out, "table", "_DONE"))
    with pytest.raises(ValueError, match=r"window 2 is marked done .* remove its _DONE"):
        run_validation(str(d), out, SPEC)
    assert not os.path.exists(os.path.join(out, "table", "_DONE"))


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
    assert _last_jobs(out)["uniqueness"] == {"row_group_tasks": 12}


def test_plan_path_equals_dataset_path(ray_session, tmp_path):
    """Two schema groups, several row groups per file, and windows whose
    rows interleave inside a row group: ``run_validation``'s plain-task
    kernel pass gives the window results of ``validate_dataset`` over the
    same rows held in memory, one table per row group, read by
    ``pyarrow`` and null-padded to the union schema."""
    from driftray.checks import EMPTY_GROUP
    from driftray.ops.zonemap import row_groups_of
    from driftray.pipeline import infer_hist_edges, validate_dataset
    from driftray.sources import read_footers, union_schema
    from driftray.spec import ColumnSpec

    rng = np.random.default_rng(5)
    pool = _pool(rng, 80)
    d = tmp_path / "mixed"
    d.mkdir()
    for i in range(2):
        t = pa.concat_tables([_key_table(rng, w, 60, pool) for w in (2 * i, 2 * i + 1)])
        # windows 2i and 2i+1 alternate row by row
        t = t.take(np.argsort(np.arange(120) % 60, kind="stable"))
        t = t.append_column("g", pa.array(["", "a", "b", None] * 30))
        if i:
            t = t.append_column("extra", pa.array(rng.integers(-5, 50, 120), pa.int64()))
        pq.write_table(t, str(d / f"part-{i}.parquet"), row_group_size=50)
    spec = TableSpec(name="mixed", unique_key=("k1", "k2"), order_column="ord",
                     columns=[ColumnSpec("k1", required=True),
                              ColumnSpec("extra", required=True, min_value=0)],
                     profile_columns=("v", "extra"), group_column="g")

    footers = read_footers(str(d))
    plan = row_groups_of(footers)
    assert len(plan) == 6
    schema = union_schema([md.schema.to_arrow_schema() for md in footers.values()])
    tables = [pa.Table.from_pylist(pq.ParquetFile(f).read_row_group(g).to_pylist(),
                                   schema=schema) for f, g in plan]
    want = validate_dataset(lambda fn: [fn(t) for t in tables], spec,
                            window_column="window_id",
                            hist_edges=infer_hist_edges(str(d), spec))
    got = {r.window_id: r for r in run_validation(
        str(d), str(tmp_path / "out"), spec, check_uniqueness=False)}
    assert sorted(got) == sorted(want) == [0, 1, 2, 3]
    assert (_last_jobs(str(tmp_path / "out"))["validate_chunks"]
            == {"row_group_tasks": 6, "row_groups": 6})
    for w, res in want.items():
        assert got[w].n_rows == res.n_rows == 60
        assert got[w].counters == res.counters
        assert sorted(got[w].violations.to_pylist(), key=str) == sorted(
            res.violations.to_pylist(), key=str)
        assert np.array_equal(got[w].key_hashes, res.key_hashes)
        assert got[w].distinct_keys == res.distinct_keys
        assert list(got[w].profiles) == list(res.profiles)
        for key, p in res.profiles.items():
            assert got[w].profiles[key].to_row() == pytest.approx(p.to_row(),
                                                                  nan_ok=True)
            assert np.array_equal(got[w].profiles[key].hist.counts, p.hist.counts)
    assert got[0].counters["completeness|extra"] == 60    # padded nulls
    assert got[2].counters["range|extra"] > 0
    assert (EMPTY_GROUP, "v") in got[0].profiles


def test_no_ray_data_dataset_is_built(ray_session, tmp_path, monkeypatch):
    """``run_validation`` (table uniqueness, Bloom membership), and
    ``validate_dataset`` and ``uniqueness_violations`` over in-memory
    tables, build no Ray Data Dataset: with ``Dataset.__init__`` raising
    they return what they return without it."""
    import ray.data as rd

    from driftray.fixtures import RepoFilesConfig, write_repo_files
    from driftray.pipeline import _concat_runs, uniqueness_violations, validate_dataset
    from driftray.spec import repo_files_spec

    data = str(tmp_path / "data")
    write_repo_files(data, 3000, RepoFilesConfig(window_rows=1000))
    path = os.path.join(data, "repo_files.parquet")
    dims = {t: os.path.join(data, f"{t}.parquet") for t in ("repos", "commits")}
    spec = repo_files_spec()
    tables = [pq.read_table(path)]

    def results(out: str):
        run = run_validation(path, out, spec, dim_paths=dims, use_bloom=True)
        map_rows = lambda fn: [fn(t) for t in tables]  # noqa: E731
        mem = validate_dataset(map_rows, spec, window_column="window_id")
        dup, extra, _winners = uniqueness_violations(
            map_rows, spec, _concat_runs(r.key_hashes for r in mem.values()))
        return ([(r.window_id, r.counters, r.violations.to_pylist()) for r in run],
                _table_outputs(out),
                [(w, r.counters, r.violations.to_pylist()) for w, r in mem.items()],
                (dup.to_pylist(), extra))

    want = results(str(tmp_path / "free"))
    assert [w for w, *_ in want[0]] == [0, 1, 2]
    assert want[1][1] > 0 and want[3][1] == want[1][1]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a Ray Data Dataset was built")

    monkeypatch.setattr(rd.Dataset, "__init__", refuse)
    assert results(str(tmp_path / "refused")) == want
