"""Run planning from Parquet footers: window discovery from the zone map's
``values``, histogram edges from footer min/max, footer-planned dimension
reads, and baseline-pinned histogram edges across appended windows."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from driftray.fixtures import RepoFilesConfig, repo_files_batch
from driftray.pipeline import (Baseline, aggregate_profiles, build_membership,
                               infer_hist_edges, promote_baseline, run_validation)
from driftray.spec import TableSpec, repo_files_spec


def _window_table(tmp_path):
    """A directory of two files.  ``a.parquet`` has three row groups: one
    window, two windows, one window.  ``b.parquet`` has no statistics."""
    d = tmp_path / "windows"
    d.mkdir()
    w = [0] * 100 + [1] * 50 + [2] * 50 + [3] * 100
    pq.write_table(pa.table({"window_id": pa.array(w, pa.int64()),
                             "v": pa.array(np.arange(len(w)), pa.int64())}),
                   str(d / "a.parquet"), row_group_size=100)
    pq.write_table(pa.table({"window_id": pa.array([5, 4, 5], pa.int64()),
                             "v": pa.array([1, 2, 3], pa.int64())}),
                   str(d / "b.parquet"), write_statistics=False)
    return d


def test_zone_map_values_match_unique(tmp_path):
    from driftray.ops.zonemap import footer_zone_map

    d = _window_table(tmp_path)
    paths = sorted(str(p) for p in d.iterdir())
    zm = footer_zone_map(paths[::-1], "window_id", values=True).to_pandas()
    assert zm["file"].tolist() == [paths[0]] * 3 + [paths[1]]
    assert zm["row_group"].tolist() == [0, 1, 2, 0]
    got = [sorted(int(v) for v in vs) for vs in zm["values"]]
    assert got == [[0], [1, 2], [3], [4, 5]]
    assert zm["nulls"].tolist() == [0, 0, 0, 0]
    found = sorted({int(v) for vs in zm["values"] for v in vs})
    want = sorted(pc.unique(pq.read_table(str(d))["window_id"]).to_pylist())
    assert found == want

    # the default output stays footer-only
    plain = footer_zone_map(paths, "window_id").to_pandas()
    assert list(plain.columns) == ["file", "row_group", "n_rows", "vmin", "vmax"]


def test_run_validation_discovers_windows_from_footers(ray_session, tmp_path):
    d = _window_table(tmp_path)
    results = run_validation(str(d), str(tmp_path / "out"), TableSpec(name="w"))
    assert sorted(r.window_id for r in results) == [0, 1, 2, 3, 4, 5]
    counts = {r.window_id: r.n_rows for r in results}
    assert counts == {0: 100, 1: 50, 2: 50, 3: 100, 4: 1, 5: 2}


def test_null_window_id_names_file_and_row_group(ray_session, tmp_path):
    d = tmp_path / "nulls"
    d.mkdir()
    path = str(d / "part-0.parquet")
    pq.write_table(pa.table({"window_id": pa.array([0, 0, 1, None], pa.int64()),
                             "v": pa.array([1, 2, 3, 4], pa.int64())}),
                   path, row_group_size=2)
    with pytest.raises(ValueError, match=r"part-0\.parquet, row group 1"):
        run_validation(str(d), str(tmp_path / "out"), TableSpec(name="n"))


def _expected_edges(values: pa.ChunkedArray, nbins: int = 32) -> np.ndarray:
    mm = pc.min_max(values)
    lo, hi = float(mm["min"].as_py()), float(mm["max"].as_py())
    if not (hi > lo):
        hi = lo + 1.0
    if lo > 0 and hi / lo > 1000.0:
        return np.geomspace(lo, hi, nbins + 1)
    return np.linspace(lo, hi, nbins + 1)


def test_infer_hist_edges_matches_min_max(tmp_path):
    d = tmp_path / "profile"
    d.mkdir()
    # with statistics; `a` has nulls and one all-null row group, `b` is
    # heavy-tailed (log-spaced edges)
    a = pa.array([None, None, 3, -7, 12, None], pa.int64())
    b = pa.array([1.5, 2.0, 9000.0, 4.0, 0.5, 7.25], pa.float64())
    pq.write_table(pa.table({"a": a, "b": b}), str(d / "p0.parquet"),
                   row_group_size=2)
    # no statistics, and a second schema version: `b` absent, `c` added
    pq.write_table(pa.table({"a": pa.array([40, None, -2], pa.int64()),
                             "c": pa.array([1, 2, 3], pa.int64())}),
                   str(d / "p1.parquet"), write_statistics=False)
    spec = TableSpec(name="h", profile_columns=("a", "b"))

    edges = infer_hist_edges(str(d), spec)
    want_a = pa.chunked_array([a, pa.array([40, None, -2], pa.int64())])
    assert np.array_equal(edges["a"], _expected_edges(want_a))
    assert np.array_equal(edges["b"], _expected_edges(pa.chunked_array([b])))
    assert edges["b"][1] / edges["b"][0] == pytest.approx(
        edges["b"][2] / edges["b"][1])

    # one file alone: statistics present, then absent
    one = infer_hist_edges(str(d / "p0.parquet"), spec)
    assert np.array_equal(one["a"], _expected_edges(pa.chunked_array([a])))
    no_stats = infer_hist_edges(str(d / "p1.parquet"), spec)
    assert np.array_equal(no_stats["a"],
                          _expected_edges(pa.chunked_array([[40, None, -2]])))
    assert "b" not in no_stats


def test_build_membership_from_path_equals_table(ray_session, tmp_path):
    d = tmp_path / "dims"
    d.mkdir()
    pq.write_table(pa.table({"repo": ["r1", "r2", "r3"],
                             "commit": ["c1", "c2", None]}), str(d / "d0.parquet"))
    pq.write_table(pa.table({"repo": ["r4", "r1"], "commit": ["c4", "c9"]}),
                   str(d / "d1.parquet"), row_group_size=1)
    cols = ("repo", "commit")
    table = pq.read_table(str(d))
    assert np.array_equal(build_membership(str(d), cols),
                          build_membership(table, cols))
    a = build_membership(str(d), cols, use_bloom=True)
    b = build_membership(table, cols, use_bloom=True)
    assert (a.bits == b.bits).all()


def test_appended_window_keeps_baseline_edges(ray_session, tmp_path):
    """An appended window whose values exceed the base table's maximum is
    profiled on the baseline's bins, so the table profile still merges."""
    cfg = RepoFilesConfig(window_rows=300)
    spec = repo_files_spec()
    table = tmp_path / "table"
    table.mkdir()
    for w in range(2):
        t = repo_files_batch(np.arange(w * 300, (w + 1) * 300), cfg)
        pq.write_table(t.select([c for c in t.column_names if not c.startswith("_")]),
                       str(table / f"part-{w}.parquet"))
    out = str(tmp_path / "out")
    run_validation(str(table), out, spec)
    baseline = str(tmp_path / "baseline.parquet")
    promote_baseline(out, 0, baseline)
    base_max = pc.max(pq.read_table(str(table))["content_len"]).as_py()

    t = repo_files_batch(np.arange(600, 900), cfg)
    t = t.select([c for c in t.column_names if not c.startswith("_")])
    i = t.schema.get_field_index("content_len")
    t = t.set_column(i, "content_len", pc.add(t["content_len"], base_max))
    pq.write_table(t, str(table / "part-2.parquet"))
    results = run_validation(str(table), out, spec, baseline_path=baseline)
    assert [r.window_id for r in results] == [2]

    merged = aggregate_profiles(out)
    assert merged.profiles
    base = {c: p.hist.edges for (_g, c), p in Baseline.load(baseline).profiles.items()}
    new = Baseline.load(os.path.join(out, "window=2", "profiles.parquet")).profiles
    assert new
    for (_g, c), p in new.items():
        assert np.array_equal(p.hist.edges, base[c])
    assert sum(p.hist.over for p in new.values()) > 0
