"""Regression tests for the round-5 self-review findings (second pass).

checks._when_mask — the config finding for a missing `when` gate column
is reported once per rule per window, not once per batch.
"""
from __future__ import annotations

import pyarrow as pa
import pytest


class TestConfigFindingOncePerActor:
    def test_two_batches_one_config_finding(self):
        from driftray.checks import ValidationKernel
        from driftray.pipeline import merge_findings
        from driftray.spec import ColumnSpec, TableSpec

        spec = TableSpec(
            name="t",
            columns=[ColumnSpec("v", min_value=0, max_value=10,
                                when=("no_such_col", "x"))])
        kernel = ValidationKernel(spec)
        # three batches of one window through the SAME kernel
        findings = pa.concat_tables(kernel(pa.table({"v": [5, 50]}))
                                    for _ in range(3))
        (res,) = merge_findings(findings, kernel).values()
        assert res.counters["config|v?no_such_col=x"] == 1  # not per batch
        cfg = [r for r in res.violations.to_pylist() if r["check"] == "config"]
        assert [r["row_ref"] for r in cfg] == ["*"]

    def test_violation_row_respects_budget(self):
        from driftray.checks import CheckContext, RangeCheck, _empty_findings
        from driftray.spec import ColumnSpec, TableSpec

        spec = TableSpec(
            name="t",
            columns=[ColumnSpec("v", min_value=0, max_value=10,
                                when=("no_such_col", "x"))])
        check = RangeCheck(spec)
        out = _empty_findings()
        ctx = CheckContext(pa.table({"v": [5]}), 0, spec, out, budget=0)
        check.process(ctx)
        # counter still lands (exact accounting); the row is budget-gated
        assert [k for k, kd in zip(out["check"], out["kind"])
                if k == "config" and kd == "violation"] == []
        assert [n for k, kd, n in zip(out["check"], out["kind"], out["n"])
                if k == "config" and kd == "counter"] == [1]
