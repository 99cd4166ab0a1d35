"""Source registry (per-format readers, union fan-in) and nested-type
(map column) support through Ray Data (SURVEY §1.2 / §2.1)."""

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from driftray.fixtures import sensor_readings
from driftray.sources import formats, read_any, union_sources


@pytest.fixture(scope="module")
def files(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("src")
    df = pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    pq.write_table(pa.Table.from_pandas(df), str(d / "t.parquet"))
    df.to_csv(str(d / "t.csv"), index=False)
    with open(str(d / "t.json"), "w") as f:
        for r in df.to_dict("records"):
            f.write(json.dumps(r) + "\n")
    return str(d)


class TestSources:
    def test_formats_registered(self):
        assert {"parquet", "csv", "json"} <= set(formats())

    @pytest.mark.parametrize("name", ["t.parquet", "t.csv", "t.json"])
    def test_read_any_by_extension(self, files, name):
        ds = read_any(os.path.join(files, name))
        out = ds.to_pandas().sort_values("a").reset_index(drop=True)
        assert list(out["a"]) == [1, 2, 3]
        assert list(out["b"]) == ["x", "y", "z"]

    def test_unknown_format_raises(self, files):
        with pytest.raises(ValueError, match="no reader"):
            read_any(os.path.join(files, "t.xyz"))

    def test_union_with_per_source_limit(self, files, ray_session):
        import ray.data as rd

        a = rd.from_items([{"v": i} for i in range(10)])
        b = rd.from_items([{"v": i + 100} for i in range(10)])
        out = union_sources([a, b], limit_per_source=3)
        assert out.count() == 6


class TestNestedMapColumn:
    def test_map_column_roundtrip_and_kernel(self, ray_session, tmp_path):
        """vehicle_distribution (map<string,int64>, sensor.py:41-42) must
        survive parquet + Ray Data + a pyarrow map_batches that unpacks it:
        vehicle_count == sum(distribution values) per traffic row."""
        import ray.data as rd

        table = sensor_readings(400, seed=3)
        path = str(tmp_path / "sensors.parquet")
        pq.write_table(table, path)
        ds = rd.read_parquet(path)

        def check(t: pa.Table) -> pa.Table:
            df = t.select(["type", "vehicle_count", "vehicle_distribution",
                           "unusual"]).to_pandas()
            # the anomaly injector multiplies vehicle_count on `unusual` rows
            # (sensor.py:127-131), deliberately breaking the invariant there
            tr = df[(df["type"] == "traffic") & (df["unusual"].isna())]
            sums = tr["vehicle_distribution"].map(
                lambda kv: sum(v for _, v in kv) if kv is not None else None)
            ok = (sums == tr["vehicle_count"]).all()
            return pa.table({"n_traffic": pa.array([len(tr)], pa.int64()),
                             "invariant_ok": pa.array([bool(ok)])})

        out = ds.map_batches(check, batch_format="pyarrow").to_pandas()
        assert out["invariant_ok"].all()
        assert out["n_traffic"].sum() > 0

    def test_map_values_aggregate(self, ray_session):
        """Vectorized map unpack: flatten map entries → per-vehicle totals."""
        import ray.data as rd

        table = sensor_readings(400, seed=3)
        ds = rd.from_arrow(table)

        def explode(t: pa.Table) -> pa.Table:
            col = t["vehicle_distribution"]
            chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
            keys, vals = [], []
            for ch in chunks:
                keys.extend(ch.keys.to_pylist())    # MapArray accessors
                vals.extend(ch.items.to_pylist())
            return pa.table({"vehicle": pa.array(keys, pa.string()),
                             "count": pa.array(vals, pa.int64())})

        from ray.data.aggregate import Sum

        out = (ds.map_batches(explode, batch_format="pyarrow")
               .groupby("vehicle").aggregate(Sum("count", alias_name="total"))
               .to_pandas())
        pdf = table.to_pandas()
        want = {}
        for kv in pdf["vehicle_distribution"].dropna():
            for k, v in kv:
                want[k] = want.get(k, 0) + v
        got = dict(zip(out["vehicle"], out["total"]))
        assert got == want


class TestQuotes:
    def test_parse_serialize_roundtrip(self, ray_session):
        """M6 quote normalize: JSON → typed columns → JSON, value-identical
        (security.py:20-49 serialization semantics)."""
        import json

        import ray.data as rd

        from driftray.ops.quotes import (parse_quotes, serialize_quotes,
                                         synth_quote_payloads)

        raw = synth_quote_payloads(200)
        parsed = parse_quotes(rd.from_arrow(raw))
        pdf = parsed.to_pandas()
        assert str(pdf["timestamp"].dtype).startswith("datetime64")
        assert (pdf["ask_price"] > pdf["bid_price"]).all()
        back = serialize_quotes(parse_quotes(rd.from_arrow(raw))).to_pandas()
        orig = [json.loads(p) for p in raw["payload"].to_pylist()]
        got = [json.loads(p) for p in back["payload"]]
        for o, g in zip(orig, got):
            assert o["symbol"] == g["symbol"]
            assert o["bid_price"] == g["bid_price"]
            assert o["timestamp"].startswith(g["timestamp"][:19])


class TestRunLineage:
    def test_stage_metrics_appended(self, ray_session, tmp_path):
        import json
        import os

        from driftray.fixtures import RepoFilesConfig, write_repo_files
        from driftray.pipeline import run_validation
        from driftray.spec import repo_files_spec

        d = str(tmp_path / "fx")
        write_repo_files(d, 2000, RepoFilesConfig(window_rows=1000))
        out = str(tmp_path / "out")
        run_validation(f"{d}/repo_files.parquet", out, repo_files_spec(),
                       check_uniqueness=False)
        path = os.path.join(out, "run_lineage.jsonl")
        assert os.path.exists(path)
        rec = json.loads(open(path).readline())
        assert rec["rows"] == 2000
        assert {"membership", "window_discovery", "hist_edges",
                "validate_chunks"} <= set(rec["stages_s"])
        assert rec["rows_per_sec"] > 0


class TestEvolvingSchemaRead:
    def _write_versions(self, d):
        import os
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq
        os.makedirs(d, exist_ok=True)
        # v1: (a, b); v2 adds c; v3 drops b
        pq.write_table(pa.table({"a": pa.array([1, 2], pa.int64()),
                                 "b": pa.array(["x", "y"])}),
                       f"{d}/v1.parquet")
        pq.write_table(pa.table({"a": pa.array([3], pa.int64()),
                                 "b": pa.array(["z"]),
                                 "c": pa.array([9.5], pa.float64())}),
                       f"{d}/v2.parquet")
        pq.write_table(pa.table({"a": pa.array([4], pa.int64()),
                                 "c": pa.array([7.5], pa.float64())}),
                       f"{d}/v3.parquet")

    def _union_read(self, d, columns=None):
        # the engine's union by name: the footers' union schema, and each
        # file read with the columns its schema group has, padded to it
        import pyarrow as pa
        import pyarrow.parquet as pq
        from driftray.sources import (footer_schema_groups, pad_to_schema,
                                      union_schema)
        groups = footer_schema_groups(d)
        schema = union_schema([sch for sch, _ in groups.values()], columns)
        return pa.concat_tables(
            pad_to_schema(pq.read_table(
                f, columns=[c for c in schema.names if c in sch.names]),
                schema)
            for sch, files in groups.values() for f in files)

    def test_union_by_name_with_null_padding(self, tmp_path):
        d = str(tmp_path / "evo")
        self._write_versions(d)
        df = self._union_read(d).to_pandas().sort_values("a", ignore_index=True)
        assert sorted(df.columns) == ["a", "b", "c"]
        assert df["a"].tolist() == [1, 2, 3, 4]
        assert df["b"].tolist()[:3] == ["x", "y", "z"] and df["b"].isna().iloc[3]
        assert df["c"].isna().iloc[0] and df["c"].iloc[3] == 7.5

    def test_column_pruning_per_group(self, tmp_path):
        d = str(tmp_path / "evo2")
        self._write_versions(d)
        t = self._union_read(d, columns=["a", "c"])
        assert t.schema.names == ["a", "c"]
        assert t.num_rows == 4
        assert sorted(t["a"].to_pylist()) == [1, 2, 3, 4]

    def test_missing_column_raises(self, tmp_path):
        import pytest
        from driftray.sources import footer_schema_groups, union_schema
        d = str(tmp_path / "evo3")
        self._write_versions(d)
        schemas = [sch for sch, _ in footer_schema_groups(d).values()]
        with pytest.raises(KeyError, match="nope"):
            union_schema(schemas, ["a", "nope"])

    def test_conflicting_type_raises(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq
        import pytest
        from driftray.sources import footer_schema_groups, union_schema
        d = tmp_path / "evo4"
        d.mkdir()
        pq.write_table(pa.table({"a": pa.array([1], pa.int64())}),
                       str(d / "x.parquet"))
        pq.write_table(pa.table({"a": pa.array(["s"], pa.string())}),
                       str(d / "y.parquet"))
        schemas = [sch for sch, _ in footer_schema_groups(str(d)).values()]
        with pytest.raises(TypeError, match="conflicting"):
            union_schema(schemas)
