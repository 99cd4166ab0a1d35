"""``run_validation`` reads only through the window zone maps of the
table's footer schema groups: a table written across schema versions, a
file without the window column, a window no row group holds, and a struct
field named like the window column."""

import dataclasses
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from driftray import pipeline as P
from driftray.spec import ColumnSpec, TableSpec


def _last_jobs(out: str) -> dict:
    with open(os.path.join(out, "run_lineage.jsonl")) as f:
        return json.loads(f.read().splitlines()[-1])["jobs"]


def _outputs(out: str, windows) -> dict:
    """Every per-window and table output of a run, in comparable form."""
    got = {}
    for w in windows:
        wdir = os.path.join(out, f"window={w}")
        with open(os.path.join(wdir, "lineage.json")) as f:
            lin = json.load(f)
        viol = pq.read_table(os.path.join(wdir, "violations.parquet"))
        got[w] = (lin["n_rows"], lin["counters"], lin["key_hll_estimate"],
                  sorted(lin["profiles"], key=lambda p: (p["group"], p["column"])),
                  sorted(zip(*(viol[c].to_pylist() for c in viol.column_names))))
    tviol = pq.read_table(os.path.join(out, "table", "uniqueness_violations.parquet"))
    got["table"] = (P.load_table_report(out),
                    sorted(zip(tviol["row_ref"].to_pylist(),
                               tviol["detail"].to_pylist())))
    return got


def test_two_schema_chunk_equals_null_filled_table(ray_session, tmp_path):
    """Windows 0-1 lack ``stars``, windows 2-3 have it; one chunk spans both
    schema groups.  The run equals one over the same rows written with one
    schema, ``stars`` null-filled, and runs no Ray Data execution: one
    plain task per planned row group."""
    from driftray.fixtures import RepoFilesConfig, dimensions, repo_files_batch
    from driftray.spec import repo_files_spec

    cfg = RepoFilesConfig(window_rows=500)
    rows = repo_files_batch(np.arange(2000), cfg)
    rows = rows.select([c for c in rows.column_names if not c.startswith("_")])
    stars = pa.array(np.arange(1000) % 9, pa.int64())
    old, new = rows.slice(0, 1000), rows.slice(1000).append_column("stars", stars)
    filled = old.append_column("stars", pa.nulls(1000, pa.int64()))
    for name, first in (("two", old), ("one", filled)):
        os.makedirs(tmp_path / name)
        pq.write_table(first, str(tmp_path / name / "part-0.parquet"),
                       row_group_size=500)
        pq.write_table(new, str(tmp_path / name / "part-1.parquet"),
                       row_group_size=500)
    repos, commits = dimensions(cfg)
    pq.write_table(repos, str(tmp_path / "repos.parquet"))
    pq.write_table(commits, str(tmp_path / "commits.parquet"))
    dims = {"repos": str(tmp_path / "repos.parquet"),
            "commits": str(tmp_path / "commits.parquet")}
    base = repo_files_spec()
    spec = dataclasses.replace(
        base, columns=[*base.columns, ColumnSpec("stars", required=True, max_value=7)],
        profile_columns=(*base.profile_columns, "stars"))

    outs = {}
    for name in ("two", "one"):
        outs[name] = str(tmp_path / f"out-{name}")
        res = P.run_validation(str(tmp_path / name), outs[name], spec,
                               dim_paths=dims)
        assert [r.window_id for r in res] == [0, 1, 2, 3]
    two, one = (_outputs(outs[n], range(4)) for n in ("two", "one"))
    assert two == one
    assert two[0][1]["completeness|stars"] == 500     # the padded nulls
    assert two[2][1]["range|stars"] > 0
    assert two["table"][0]["extra_rows"] > 0
    jobs = _last_jobs(outs["two"])
    assert all(j["ray_data"] == 0 for j in jobs.values())
    assert jobs["validate_chunks"]["row_group_tasks"] == 4   # 2 files x 2
    assert jobs["validate_chunks"]["row_groups"] == 4


def _keyed(windows, v) -> pa.Table:
    return pa.table({"window_id": pa.array(windows, pa.int64()),
                     "k": pa.array([f"k{i % 3}" for i in range(len(windows))]),
                     "v": pa.array(v, pa.int64())})


SPEC = TableSpec(name="plan", columns=[ColumnSpec("v", min_value=0)],
                 unique_key=("k",))


def test_file_without_window_column(ray_session, tmp_path, monkeypatch):
    d = tmp_path / "nowin"
    d.mkdir()
    pq.write_table(_keyed([0, 0, 1, 1], [5, -1, 3, -2]), str(d / "a.parquet"))
    pq.write_table(_keyed([2, 2], [-7, 1]).drop_columns(["window_id"]),
                   str(d / "b.parquet"))
    out = str(tmp_path / "out")

    counted = []
    monkeypatch.setattr(P, "_count", lambda kind, n=1: counted.append(kind))
    with pytest.raises(ValueError, match="b.parquet"):
        P.run_validation(str(d), out, SPEC)
    assert counted == []     # no Ray Data execution, no row-group task
    assert P.done_windows(out) == []
    monkeypatch.undo()

    res = P.run_validation(str(d), out, SPEC, windows=[0, 1])
    assert [(r.window_id, r.n_rows, r.counters["range|v"]) for r in res] == [
        (0, 2, 1), (1, 2, 1)]
    assert P.load_table_report(out)["extra_rows"] == 1   # k0 in windows 0 and 1


def test_window_no_row_group_holds(ray_session, tmp_path):
    d = tmp_path / "t"
    d.mkdir()
    pq.write_table(_keyed([0, 0, 1], [1, 2, 3]), str(d / "a.parquet"))
    out = str(tmp_path / "out")
    res = P.run_validation(str(d), out, SPEC, windows=[99])
    assert [(r.window_id, r.n_rows, r.counters) for r in res] == [(99, 0, {})]
    assert P.window_done(out, 99)
    assert _last_jobs(out)["validate_chunks"]["ray_data"] == 0
    assert P.load_table_report(out)["windows"] == [99]


def test_struct_field_does_not_shadow_window_column(ray_session, tmp_path):
    """``meta.window_id`` is a leaf named like the window column; the zone
    map must read the top-level ``window_id``."""
    from driftray.ops.zonemap import footer_zone_map

    d = tmp_path / "nested"
    d.mkdir()
    path = str(d / "a.parquet")
    pq.write_table(pa.table({
        "window_id": pa.array([0, 0, 1, 1], pa.int64()),
        "meta": pa.array([{"window_id": w} for w in (7, 7, 9, 9)]),
        "v": pa.array([1, -1, 2, 3], pa.int64()),
    }), path)
    zm = footer_zone_map([path], "window_id", values=True)
    assert (zm["vmin"].tolist(), zm["vmax"].tolist()) == ([0], [1])
    assert sorted(zm["values"][0]) == [0, 1]

    res = P.run_validation(str(d), str(tmp_path / "out"),
                           TableSpec(name="n", columns=[ColumnSpec("v", min_value=0)]))
    assert [(r.window_id, r.n_rows) for r in res] == [(0, 2), (1, 2)]


def _windowed(tmp_path, name: str, windows_per_row_group: int) -> str:
    """Six windows of 50 rows, ``windows_per_row_group`` per row group;
    keys repeat within and across windows."""
    d = tmp_path / name
    d.mkdir()
    w = np.repeat(np.arange(6), 50)
    pq.write_table(_keyed(w.tolist(), ((np.arange(300) * 7) % 23 - 2).tolist()),
                   str(d / "a.parquet"), row_group_size=50 * windows_per_row_group)
    return str(d)


def test_scattered_resume_reads_only_pending_row_groups(ray_session, tmp_path):
    """One window per row group: after windows 1-4, the resume of windows
    0 and 5 reads their 2 row groups, not the 6 their range spans."""
    d = _windowed(tmp_path, "t", 1)
    out, cold = str(tmp_path / "out"), str(tmp_path / "cold")
    P.run_validation(d, out, SPEC, windows=[1, 2, 3, 4])
    assert _last_jobs(out)["validate_chunks"]["row_groups"] == 4
    res = P.run_validation(d, out, SPEC)
    assert [(r.window_id, r.n_rows) for r in res] == [(0, 50), (5, 50)]
    assert _last_jobs(out)["validate_chunks"]["row_groups"] == 2
    P.run_validation(d, cold, SPEC)
    assert _last_jobs(cold)["validate_chunks"]["row_groups"] == 6
    assert _outputs(out, range(6)) == _outputs(cold, range(6))


def test_windows_select_row_groups_by_window_id(ray_session, tmp_path):
    """Row groups hold windows {0, 1}, {2, 3} and {4, 5}: ``windows=[1, 4]``
    reads 2 row groups and gives those windows' results of a full run."""
    d = _windowed(tmp_path, "t", 2)
    part, full = str(tmp_path / "part"), str(tmp_path / "full")
    res = {r.window_id: r for r in P.run_validation(d, part, SPEC, windows=[1, 4])}
    assert sorted(res) == [1, 4]
    assert _last_jobs(part)["validate_chunks"]["row_groups"] == 2
    cold = {r.window_id: r for r in P.run_validation(d, full, SPEC)}
    assert _last_jobs(full)["validate_chunks"]["row_groups"] == 3
    for w in (1, 4):
        assert res[w].n_rows == 50 and res[w].counters == cold[w].counters
    # the rest of the table: the table report equals the full run's
    P.run_validation(d, part, SPEC)
    assert P.load_table_report(part) == P.load_table_report(full)
    assert P.load_table_report(full)["extra_rows"] > 0
    assert _outputs(part, range(6)) == _outputs(full, range(6))


def test_kernel_empty_batch_with_window_column():
    """A 0-row batch that has the window column yields no findings rows,
    not an error and no window -1 row."""
    from driftray.checks import FINDINGS_SCHEMA, ValidationKernel

    kernel = ValidationKernel(SPEC, window_column="window_id")
    got = kernel(_keyed([], []))
    assert got.num_rows == 0 and got.schema == FINDINGS_SCHEMA
