"""Regression tests for the round-2 self-review findings."""

import numpy as np
import pyarrow as pa

from driftray.checks import hash_keys


class TestUint64Keys:
    def test_high_bit_uint64_hashes(self):
        t = pa.table({"k": pa.array([2**63 + 5, 1, None], pa.uint64())})
        h = hash_keys(t, ["k"])
        assert len(h) == 3
        clean = pa.table({"k": pa.array([2**63 + 5], pa.uint64())})
        assert hash_keys(clean, ["k"])[0] == h[0]  # null-stable too


# --- round-4 self-review fixes (code-review over 9b32d28..HEAD) ------------


class TestEvolvingColumnsSubset:
    def test_rows_kept_when_group_lacks_column(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq
        from driftray.sources import (footer_schema_groups, pad_to_schema,
                                      union_schema)
        d = tmp_path / "evo"
        d.mkdir()
        pq.write_table(pa.table({"a": pa.array([1, 2], pa.int64()),
                                 "b": pa.array(["x", "y"])}),
                       str(d / "v1.parquet"))
        pq.write_table(pa.table({"a": pa.array([3], pa.int64()),
                                 "c": pa.array([9.5], pa.float64())}),
                       str(d / "v2.parquet"))
        groups = footer_schema_groups(str(d))
        schema = union_schema([sch for sch, _ in groups.values()], ["c"])
        t = pa.concat_tables(pad_to_schema(pq.read_table(f), schema)
                             for _, files in groups.values() for f in files)
        # v1's rows must survive with c = NULL, not vanish
        assert t.num_rows == 3
        assert t["c"].null_count == 2
        assert t.schema.names == ["c"]


class TestRangeConditionalLabels:
    def test_two_rules_same_column_do_not_merge(self, ray_session):
        import pyarrow as pa
        from driftray.checks import ValidationKernel
        from driftray.spec import ColumnSpec, TableSpec
        spec = TableSpec(name="t", columns=[
            ColumnSpec("v", min_value=0),
            ColumnSpec("v", min_value=100, when=("t", "strict")),
        ])
        t = pa.table({"v": pa.array([50, -1, 50], pa.int64()),
                      "t": ["strict", "lax", "lax"]})
        f = ValidationKernel(spec)(t).to_pandas()
        c = {(r.check, r.column): r.n for r in
             f[f.kind == "counter"].itertuples()}
        assert c[("range", "v")] == 1               # only the -1
        assert c[("range", "v?t=strict")] == 1      # only the strict 50


class TestBadPathTagConsistency:
    def test_no_overlap_with_null_or_dup(self, ray_session):
        import numpy as np
        from driftray.fixtures import RepoFilesConfig, repo_files_batch
        cfg = RepoFilesConfig(p_bad_path_fmt=0.2, p_null_path=0.2,
                              p_dup_key=0.2)
        df = repo_files_batch(np.arange(5000), cfg).to_pandas()
        bad = df[df._bad_path_fmt]
        assert len(bad) > 0
        # every tagged row still carries the planted bad-format path
        assert bad["path"].str.contains(" ").all()
        assert not (df._bad_path_fmt & (df._null_path | df._dup_key)).any()
