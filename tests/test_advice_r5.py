"""Regression tests for the round-4 ADVICE.md findings (fixed in round 5).

checks._when_mask — a `when` gate column missing from the batch emits
   a distinct config finding instead of silently disabling the rule.
"""
from __future__ import annotations

import pyarrow as pa
import pytest


class TestWhenColumnMissing:
    def _run(self, batch: pa.Table, spec):
        from driftray.checks import CheckContext, RangeCheck, _empty_findings

        out = _empty_findings()
        ctx = CheckContext(batch, 0, spec, out, budget=100)
        RangeCheck(spec).process(ctx)
        return out

    def test_missing_gate_emits_config_finding(self):
        from driftray.spec import ColumnSpec, TableSpec

        spec = TableSpec(
            name="t",
            columns=[ColumnSpec("v", min_value=0, max_value=10,
                                when=("no_such_col", "x"))])
        batch = pa.table({"v": [5, 50]})
        out = self._run(batch, spec)
        assert "config" in out["check"], out
        i = out["check"].index("config")
        assert "no_such_col" in out["detail"][i] or out["kind"][i] == "counter"
        details = [d for k, d in zip(out["check"], out["detail"])
                   if k == "config" and d]
        assert any("no_such_col" in d for d in details)
        # rule itself reports 0 violations (gate can't evaluate) but is
        # no longer silent about why
        rng = [n for k, kd, n in zip(out["check"], out["kind"], out["n"])
               if k == "range" and kd == "counter"]
        assert rng == [0]

    def test_present_gate_no_config_finding(self):
        from driftray.spec import ColumnSpec, TableSpec

        spec = TableSpec(
            name="t",
            columns=[ColumnSpec("v", min_value=0, max_value=10,
                                when=("g", "x"))])
        batch = pa.table({"v": [5, 50, 50], "g": ["x", "x", "y"]})
        out = self._run(batch, spec)
        assert "config" not in out["check"]
        i = out["check"].index("range")
        assert out["n"][i] == 1  # only the gated row 50/g=x violates
