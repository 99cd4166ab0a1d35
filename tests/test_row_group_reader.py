"""One row-group reader behind every planned read: plain tasks
(``ops.zonemap.map_row_groups``, running ``ops.zonemap.read_row_group``)
give the rows of ``pq.read_table`` with the same filter, padded to the
same schema."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from driftray.ops import zonemap
from driftray.sources import read_footers, union_schema


def _two_schemas(tmp_path) -> str:
    """Windows 0-2 without ``extra``, windows 3-5 with it; two row groups
    per file, the first holding two windows."""
    d = tmp_path / "two"
    d.mkdir()
    for i in range(2):
        w = np.repeat(np.arange(3 * i, 3 * i + 3), 20)
        t = pa.table({"w": pa.array(w, pa.int64()),
                      "k": pa.array([f"k{j}" for j in range(len(w))]),
                      "v": pa.array(np.arange(len(w)) + 100 * i, pa.float64())})
        if i:
            t = t.append_column("extra", pa.array(w * 10, pa.int64()))
        pq.write_table(t, str(d / f"part-{i}.parquet"), row_group_size=40)
    return str(d)


def _rows(tables) -> list:
    """Every row of ``tables``, in a comparable order."""
    rows = pa.concat_tables(tables).to_pylist()
    return sorted(rows, key=lambda r: (r["w"], r["k"]))


def _both(plan, columns, **read):
    """The rows of ``plan`` from ``pq.read_table`` of its files with the
    same filter, in ``columns`` (a schema pads with nulls), and through
    plain tasks."""
    col, lo, hi, value_set = (read["col"], read.get("lo"), read.get("hi"),
                              read.get("value_set"))
    members = None if value_set is None else pa.array(value_set, pa.int64())
    via_tasks = zonemap.map_row_groups(plan, lambda t: t, columns, col=col,
                                       lo=lo, hi=hi, members=members)
    keep = ((lambda v: v in value_set) if value_set is not None
            else (lambda v: lo <= v <= hi))
    schema = columns if isinstance(columns, pa.Schema) else None
    names = schema.names if schema is not None else list(columns)
    rows = [{c: r.get(c) for c in names}
            for f in dict.fromkeys(f for f, _ in plan)
            for r in pq.read_table(f).to_pylist() if keep(r[col])]
    return [pa.Table.from_pylist(rows, schema=schema)], via_tasks


def _union(footers, columns=None) -> pa.Schema:
    return union_schema([md.schema.to_arrow_schema() for md in footers.values()],
                        columns)


def test_two_schema_member_filter_padded_alike(ray_session, tmp_path):
    footers = read_footers(_two_schemas(tmp_path))
    plan = zonemap.row_groups_of(footers)
    assert len(plan) == 4
    schema = _union(footers)
    want, via_tasks = _both(plan, schema, col="w", value_set=[1, 4])
    for tables in (want, via_tasks):
        assert all(t.schema == schema for t in tables)
    got = _rows(via_tasks)
    assert _rows(want) == got
    assert [(r["w"], r["extra"]) for r in got[::20]] == [(1, None), (4, 40)]
    assert len(got) == 40


def test_range_filter_projected_alike(ray_session, tmp_path):
    footers = read_footers(_two_schemas(tmp_path))
    plan = zonemap.row_groups_of(footers)
    oracle, via_tasks = _both(plan, ["k", "v"], col="w", lo=2, hi=3)
    for tables in (oracle, via_tasks):
        assert all(t.column_names == ["k", "v"] for t in tables)
    full = pa.concat_tables(pq.read_table(f, columns=["w", "k", "v"])
                            for f in footers)
    want = sorted((r["k"], r["v"]) for r in full.to_pylist() if 2 <= r["w"] <= 3)
    assert len(want) == 40
    for tables in (oracle, via_tasks):
        assert sorted((r["k"], r["v"])
                      for r in pa.concat_tables(tables).to_pylist()) == want


def test_column_no_schema_supplies_raises(ray_session, tmp_path):
    footers = read_footers(_two_schemas(tmp_path))
    plan = zonemap.row_groups_of(footers)
    # the union schema supplies ``extra`` to the file that lacks it ...
    padded = zonemap.map_row_groups(plan, lambda t: t, _union(footers, ["k", "extra"]))
    assert sum(len(t) for t in padded) == 120
    # ... and a column in no footer has no schema to come from
    with pytest.raises(KeyError, match="nowhere"):
        _union(footers, ["k", "nowhere"])
    # a column list supplies nothing: the file without ``extra`` raises,
    # through the reader and a plain task, with a filter or without
    with pytest.raises(KeyError, match="extra"):
        zonemap.read_row_group(plan[0][0], 0, ["k", "extra"])
    with pytest.raises(Exception, match="extra"):
        zonemap.map_row_groups(plan, lambda t: t, ["k", "extra"])
    with pytest.raises(Exception, match="extra"):
        zonemap.map_row_groups(plan, lambda t: t, ["k", "extra"], col="w",
                               lo=0, hi=5)


def test_two_schema_key_plan_is_one_submission(ray_session, tmp_path, monkeypatch):
    """The uniqueness verify over a table whose files differ in the key
    columns they hold submits every planned row group in one
    ``map_row_groups`` call, not one call per column set."""
    from driftray.pipeline import load_table_report, run_validation
    from driftray.spec import TableSpec

    d = tmp_path / "keys"
    d.mkdir()
    for i in range(4):
        t = pa.table({"window_id": pa.array([i] * 30, pa.int64()),
                      "k1": pa.array([f"r{j % 12}" for j in range(30)]),
                      "k2": pa.array(np.arange(30) % 2, pa.int64())})
        if i < 2:
            t = t.drop_columns(["k2"])
        pq.write_table(t, str(d / f"part-{i}.parquet"), row_group_size=10)

    calls = []
    real = zonemap.map_row_groups

    def counting(row_groups, fn, columns=None, **read):
        calls.append(len(row_groups))
        return real(row_groups, fn, columns, **read)

    monkeypatch.setattr(zonemap, "map_row_groups", counting)
    run_validation(str(d), str(tmp_path / "out"),
                   TableSpec(name="k", unique_key=("k1", "k2")))
    # two calls over all 12 row groups: the kernel pass of the one
    # window chunk, then the candidate fetch (the key hashes come from
    # the kernel pass)
    assert calls == [12, 12]
    # a file without k2 holds it as null, as the kernel pass's read pads it
    keys = pd.concat(pq.read_table(str(f)).to_pandas() for f in sorted(d.iterdir()))
    extra = int(keys[["k1", "k2"]].duplicated().sum())
    assert extra > 0
    assert load_table_report(str(tmp_path / "out"))["extra_rows"] == extra
