"""Union by name over a footer union schema (``sources.union_schema`` +
``sources.pad_to_schema``): typed null padding against a pandas oracle,
and conflicting column types rejected by ``union_schema`` and by
``run_validation`` before any read."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def test_union_by_name_pads_and_rejects_conflicts():
    from driftray.sources import pad_to_schema, union_schema

    a = pa.table({"x": pa.array([1, 2], pa.int64()), "y": ["a", "b"]})
    b = pa.table({"x": pa.array([3], pa.int64()), "z": [1.5]})
    schema = union_schema([a.schema, b.schema])
    assert schema.names == ["x", "y", "z"]
    out = (pa.concat_tables([pad_to_schema(a, schema), pad_to_schema(b, schema)])
           .to_pandas().sort_values("x"))
    assert list(out.columns) == ["x", "y", "z"]
    assert out["y"].isna().tolist() == [False, False, True]
    assert out["z"].isna().tolist() == [True, True, False]
    # restricted to columns, in their order
    assert union_schema([a.schema, b.schema], ["z", "x"]).names == ["z", "x"]

    c = pa.table({"x": ["oops"]})   # conflicting type
    with pytest.raises(TypeError, match="conflicting"):
        union_schema([a.schema, c.schema])
    # a conflict outside the requested columns is not read, so not raised
    assert union_schema([a.schema, c.schema], ["y"]).names == ["y"]
    with pytest.raises(KeyError, match="nope"):
        union_schema([a.schema, b.schema], ["x", "nope"])


def _conflicting_table(d):
    d.mkdir()
    pq.write_table(pa.table({"window_id": pa.array([0, 0], pa.int64()),
                             "v": pa.array([1, 2], pa.int64())}),
                   str(d / "a.parquet"))
    pq.write_table(pa.table({"window_id": pa.array([1], pa.int64()),
                             "v": pa.array(["s"], pa.string())}),
                   str(d / "b.parquet"))
    return str(d)


def test_footer_union_schema_rejects_conflicts(tmp_path):
    from driftray.sources import footer_schema_groups, pad_to_schema, union_schema

    d = _conflicting_table(tmp_path / "evo")
    groups = footer_schema_groups(d)
    schemas = [sch for sch, _ in groups.values()]
    with pytest.raises(TypeError, match="conflicting"):
        union_schema(schemas)
    # the conflict lies outside the requested columns: every row is kept
    schema = union_schema(schemas, ["window_id"])
    t = pa.concat_tables(pad_to_schema(pq.read_table(f), schema)
                         for _, files in groups.values() for f in files)
    assert t.num_rows == 3


def test_run_validation_rejects_conflicts_in_a_chunk(ray_session, tmp_path):
    """A column whose type differs across files raises ``TypeError``
    before any window is written, whatever ``windows_per_pass``: every
    read pads to the union schema of the whole table, so a chunk whose
    files hold one schema group conflicts too."""
    from driftray.pipeline import run_validation
    from driftray.spec import TableSpec

    d = _conflicting_table(tmp_path / "tbl")
    for windows_per_pass in (4, 1):
        out = tmp_path / f"out{windows_per_pass}"
        with pytest.raises(TypeError, match="conflicting"):
            run_validation(d, str(out), TableSpec(name="c"),
                           windows_per_pass=windows_per_pass)
        assert not list(out.glob("window=*/_DONE"))
