"""Unit oracles for the zone-map ops: footer_zone_map and pruned_read
(incl. the planted multi-row-group pruning proof), twins of the q117 and
q118 oracles."""
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _write_clustered(tmp_path, n_groups=5, rows_per_group=100):
    """A parquet file whose row groups are disjoint ranges of `v`:
    group g holds v in [g*1000, g*1000+rows)."""
    vs, tags = [], []
    for g in range(n_groups):
        vs.extend(range(g * 1000, g * 1000 + rows_per_group))
        tags.extend([g] * rows_per_group)
    t = pa.table({"v": pa.array(vs, pa.int64()),
                  "grp": pa.array(tags, pa.int64())})
    path = str(tmp_path / "clustered.parquet")
    pq.write_table(t, path, row_group_size=rows_per_group)
    assert pq.ParquetFile(path).metadata.num_row_groups == n_groups
    return path


def test_zone_map_matches_footers(tmp_path):
    from driftray.ops.zonemap import footer_zone_map

    path = _write_clustered(tmp_path)
    zm = (footer_zone_map([path], "v").to_pandas()
          .sort_values("row_group").reset_index(drop=True))
    assert len(zm) == 5
    assert zm["n_rows"].tolist() == [100] * 5
    assert zm["vmin"].tolist() == [g * 1000 for g in range(5)]
    assert zm["vmax"].tolist() == [g * 1000 + 99 for g in range(5)]


def test_zone_map_types_bounds_from_footer(tmp_path):
    """A file written without statistics has null vmin/vmax typed like
    the column."""
    from driftray.ops.zonemap import footer_zone_map

    path = _write_clustered(tmp_path, n_groups=2)
    bare = str(tmp_path / "bare.parquet")
    pq.write_table(pa.table({"v": pa.array([7, 8], pa.int64()),
                             "grp": pa.array([9, 9], pa.int64())}),
                   bare, write_statistics=False)
    table = footer_zone_map([path, bare], "v")
    for col in ("vmin", "vmax"):
        assert table.schema.field(col).type == pa.int64()
    zm = table.to_pandas().sort_values(["file", "row_group"])
    assert zm["vmin"].isna().tolist() == [True, False, False]
    assert zm["vmax"].tolist()[1:] == [99, 1099]


def test_pruned_read_skips_nonoverlapping_groups(ray_session, tmp_path,
                                                 monkeypatch):
    """The planted pruning proof: the plan ``pruned_read`` hands to
    ``map_row_groups`` holds only the overlapping row group, so no pruned
    group is ever opened, and the rows equal the exact filter."""
    from driftray.ops import zonemap

    path = _write_clustered(tmp_path)
    plans = []
    map_row_groups = zonemap.map_row_groups

    def spy(row_groups, *args, **kw):
        plans.append(list(row_groups))
        return map_row_groups(row_groups, *args, **kw)

    monkeypatch.setattr(zonemap, "map_row_groups", spy)
    out = (zonemap.pruned_read([path], "v", 2000, 2050).to_pandas()
           .sort_values("v").reset_index(drop=True))
    # only row group 2 (v in [2000, 2099]) overlaps [2000, 2050]
    assert plans == [[(path, 2)]]
    full = pq.read_table(path).to_pandas()
    exp = (full[(full["v"] >= 2000) & (full["v"] <= 2050)]
           .sort_values("v").reset_index(drop=True))
    pd.testing.assert_frame_equal(out[["v", "grp"]], exp[["v", "grp"]])


def test_pruned_read_exact_matches_plain_filter(ray_session, tmp_path):
    from driftray.ops.zonemap import pruned_read

    path = _write_clustered(tmp_path)
    out = (pruned_read([path], "v", 1950, 3010).to_pandas()
           .sort_values("v").reset_index(drop=True))
    full = pq.read_table(path).to_pandas()
    exp = (full[(full["v"] >= 1950) & (full["v"] <= 3010)]
           .sort_values("v").reset_index(drop=True))
    pd.testing.assert_frame_equal(out[["v", "grp"]], exp[["v", "grp"]])


def test_pruned_read_no_overlap_returns_typed_empty(ray_session, tmp_path):
    from driftray.ops.zonemap import pruned_read

    path = _write_clustered(tmp_path)
    out = pruned_read([path], "v", 10**9, 2 * 10**9)
    assert out.num_rows == 0
    assert out.schema == pq.read_schema(path)
