"""Per-row-group Bloom index (`ops/zonemap.build_bloom_index` /
`bloom_pruned_read`): no false negatives, observable pruning on a
planted disjoint layout, bit-equality of the exact pruned read."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _stage(tmp_path, n_files=4, rows_per=50):
    paths = []
    for f in range(n_files):
        ids = np.arange(f * rows_per, (f + 1) * rows_per, dtype=np.int64)
        t = pa.table({"id": ids, "v": ids * 2})
        p = str(tmp_path / f"part-{f}.parquet")
        pq.write_table(t, p)
        paths.append(p)
    return paths


def test_bloom_index_prunes_planted_layout(ray_session, tmp_path):
    from driftray.ops.zonemap import _bloom_plan, build_bloom_index

    paths = _stage(tmp_path)
    idx = build_bloom_index(paths, "id")
    assert idx.num_rows == 4 and idx["n_rows"].to_pylist() == [50] * 4
    # probe a value only file 2 holds: file 2 MUST be kept (no false
    # negatives); others may only survive as bloom false positives
    # (~1e-3 each — assert the overwhelmingly-likely exact prune)
    keep = _bloom_plan(idx, [117])
    assert (str(tmp_path / "part-2.parquet"), 0) in keep
    assert len(keep) <= 2


def test_bloom_pruned_read_matches_plain_scan(ray_session, tmp_path):
    from driftray.ops.zonemap import bloom_pruned_read

    paths = _stage(tmp_path)
    probes = [0, 55, 117, 199, 10_000]  # last absent everywhere
    out = (bloom_pruned_read(paths, "id", probes, columns=["id", "v"])
           .to_pandas().sort_values("id").reset_index(drop=True))
    assert out["id"].tolist() == [0, 55, 117, 199]
    assert out["v"].tolist() == [0, 110, 234, 398]


def test_bloom_pruned_read_absent_everywhere(ray_session, tmp_path):
    from driftray.ops.zonemap import bloom_pruned_read

    paths = _stage(tmp_path, n_files=2)
    out = bloom_pruned_read(paths, "id", [99_999_999])
    pdf = out.to_pandas()
    assert len(pdf) == 0


def test_bloom_index_reused_across_lookups(ray_session, tmp_path):
    from driftray.ops.zonemap import bloom_pruned_read, build_bloom_index

    paths = _stage(tmp_path)
    idx = build_bloom_index(paths, "id")
    a = bloom_pruned_read(paths, "id", [7], index=idx).to_pandas()
    b = bloom_pruned_read(paths, "id", [151], index=idx).to_pandas()
    assert a["id"].tolist() == [7] and b["id"].tolist() == [151]


def test_bloom_index_prunes_row_groups_of_one_file(ray_session, tmp_path,
                                                   monkeypatch):
    """One filter per row group: a probe held by one row group of a file
    plans only that row group's read."""
    from driftray.ops import zonemap

    path = str(tmp_path / "one.parquet")
    ids = np.arange(200, dtype=np.int64)
    pq.write_table(pa.table({"id": ids, "v": ids * 2}), path, row_group_size=50)
    idx = zonemap.build_bloom_index([path], "id")
    assert list(zip(idx["file"].to_pylist(), idx["row_group"].to_pylist())) == [
        (path, g) for g in range(4)]
    plans = []
    map_row_groups = zonemap.map_row_groups

    def spy(row_groups, *args, **kw):
        plans.append(list(row_groups))
        return map_row_groups(row_groups, *args, **kw)

    monkeypatch.setattr(zonemap, "map_row_groups", spy)
    out = zonemap.bloom_pruned_read([path], "id", [117], index=idx)
    assert (path, 2) in plans[0] and len(plans[0]) <= 2
    assert out.to_pydict() == {"id": [117], "v": [234]}
