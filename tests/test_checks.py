"""Constraint-kernel units (SURVEY.md §5.2 #3)."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from driftray.bloom import BloomFilter
from driftray.checks import ValidationKernel, join_key, sha256_hex
from driftray.pipeline import build_membership
from driftray.spec import (ColumnSpec, DriftSpec, ForeignKey, HashInvariant,
                           TableSpec)


def counters_of(findings: pa.Table) -> dict:
    df = findings.to_pandas()
    c = df[df.kind == "counter"]
    return {(r.check, r.column): r.n for r in c.itertuples()}


def make_spec(**kw) -> TableSpec:
    base = dict(
        name="t",
        columns=[
            ColumnSpec("sid", required=True),
            ColumnSpec("val", required=True, min_value=0, max_value=100),
        ],
        unique_key=("sid",),
        order_column="sid",
        profile_columns=("val",),
    )
    base.update(kw)
    return TableSpec(**base)


class TestCompleteness:
    def test_null_empty_nan_semantics(self):
        # DESIGN.md:344-357: strings count null OR "", floats null OR NaN
        t = pa.table({
            "sid": pa.array(["a", None, "", "d", "e"], pa.string()),
            "val": pa.array([1.0, 2.0, 3.0, None, float("nan")], pa.float64()),
        })
        c = counters_of(ValidationKernel(make_spec())(t))
        assert c[("completeness", "sid")] == 2   # null + empty
        assert c[("completeness", "val")] == 2   # null + NaN

    def test_missing_column(self):
        t = pa.table({"val": pa.array([1.0], pa.float64())})
        f = ValidationKernel(make_spec())(t).to_pandas()
        row = f[(f.kind == "violation") & (f.column == "sid")]
        assert len(row) == 1 and row.iloc[0].row_ref == "*"


class TestRange:
    def test_inclusive_bounds(self):
        t = pa.table({"sid": ["a", "b", "c", "d"],
                      "val": pa.array([0.0, 100.0, -0.1, 100.1])})
        c = counters_of(ValidationKernel(make_spec())(t))
        assert c[("range", "val")] == 2  # bounds inclusive → 0 and 100 pass

    def test_null_not_range_violation(self):
        t = pa.table({"sid": ["a"], "val": pa.array([None], pa.float64())})
        c = counters_of(ValidationKernel(make_spec())(t))
        assert c[("range", "val")] == 0

    def test_row_condition(self):
        # per-type gating mirrors DESIGN.md:369-379
        spec = make_spec(columns=[
            ColumnSpec("sid", required=True),
            ColumnSpec("val", min_value=0, max_value=10, when=("kind", "small")),
        ])
        t = pa.table({"sid": ["a", "b"], "kind": ["small", "big"],
                      "val": pa.array([50.0, 50.0])})
        c = counters_of(ValidationKernel(spec)(t))
        # conditional rules carry their condition in the label (so a second
        # rule on the same column can't merge counts) — r4 self-review fix
        assert c[("range", "val?kind=small")] == 1  # only the 'small' row


class TestSha256:
    def test_invariant(self):
        spec = make_spec(hash_invariant=HashInvariant("content", "h"))
        good = "hello world"
        t = pa.table({
            "sid": ["a", "b"],
            "val": pa.array([1.0, 2.0]),
            "content": [good, good],
            "h": [hashlib.sha256(good.encode()).hexdigest(), "deadbeef"],
        })
        f = ValidationKernel(spec)(t).to_pandas()
        v = f[(f.kind == "violation") & (f.check == "sha256")]
        assert len(v) == 1 and v.iloc[0].row_ref == "b"

    def test_sha256_hex_matches_hashlib(self):
        vals = ["", "x", "unicode ✓"]
        assert sha256_hex(vals) == [hashlib.sha256(s.encode()).hexdigest() for s in vals]
        assert sha256_hex([None]) == [None]


class TestReferential:
    def _spec(self):
        return make_spec(foreign_keys=[ForeignKey(("sid",), "dim", ("k",))])

    def test_set_membership(self):
        t = pa.table({"sid": ["a", "b", "zz"], "val": pa.array([1.0, 2.0, 3.0])})
        m = build_membership(pa.table({"k": ["a", "b"]}), ["k"])
        k = ValidationKernel(self._spec(), membership={0: m})
        f = k(t).to_pandas()
        v = f[(f.kind == "violation") & (f.check == "referential")]
        assert list(v.row_ref) == ["zz"]

    def test_bloom_membership_no_false_negatives(self):
        keys = [f"k{i}" for i in range(1000)]
        bf = build_membership(pa.table({"k": keys}), ["k"], use_bloom=True)
        assert isinstance(bf, BloomFilter)
        t = pa.table({"sid": keys, "val": [1.0] * 1000})
        c = counters_of(ValidationKernel(self._spec(), membership={0: bf})(t))
        assert c[("referential", "sid")] == 0  # members never flagged

    def test_compound_key(self):
        spec = make_spec(foreign_keys=[ForeignKey(("a", "b"), "dim", ("a", "b"))])
        t = pa.table({"sid": ["s1", "s2"], "val": [1.0, 2.0],
                      "a": ["x", "x"], "b": ["1", "2"]})
        m = build_membership(pa.table({"a": ["x"], "b": ["1"]}), ["a", "b"])
        c = counters_of(ValidationKernel(spec, membership={0: m})(t))
        assert c[("referential", "a|b")] == 1


class TestWindowSplit:
    def test_batch_straddling_windows(self):
        spec = make_spec()
        t = pa.table({"sid": ["a", "b", "c", "d"], "val": [1.0, 2.0, 3.0, 4.0],
                      "w": pa.array([0, 0, 1, 1], pa.int64())})
        f = ValidationKernel(spec, window_column="w")(t).to_pandas()
        rows = f[(f.kind == "counter") & (f.check == "rows")]
        assert dict(zip(rows.window, rows.n)) == {0: 2, 1: 2}


class TestViolationCap:
    def test_cap_bounds_rows_but_counters_exact(self):
        spec = make_spec()
        n = 500
        t = pa.table({"sid": [None] * n, "val": [1.0] * n})
        kernel = ValidationKernel(spec)
        kernel.cap = 10
        f = kernel(t).to_pandas()
        assert len(f[f.kind == "violation"]) == 10
        c = counters_of(pa.Table.from_pandas(f))
        assert c[("completeness", "sid")] == n


def test_join_key_null_fill():
    t = pa.table({"a": ["x", None], "b": ["1", "2"]})
    keys = join_key(t, ["a", "b"])
    assert keys[0] == "x|1" and "null" in keys[1]
