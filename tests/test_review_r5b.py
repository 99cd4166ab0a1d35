"""Regression tests for the round-5 self-review findings (second pass).

checks._when_mask — the config finding for a missing `when` gate column
is emitted once per rule per check actor, not once per batch.
"""
from __future__ import annotations

import pyarrow as pa
import pytest


class TestConfigFindingOncePerActor:
    def test_two_batches_one_config_finding(self):
        from driftray.checks import CheckContext, RangeCheck, _empty_findings
        from driftray.spec import ColumnSpec, TableSpec

        spec = TableSpec(
            name="t",
            columns=[ColumnSpec("v", min_value=0, max_value=10,
                                when=("no_such_col", "x"))])
        check = RangeCheck(spec)  # one actor = one instance
        out = _empty_findings()
        for _ in range(3):  # three batches through the SAME instance
            ctx = CheckContext(pa.table({"v": [5, 50]}), 0, spec, out,
                               budget=100)
            check.process(ctx)
        cfg_counters = [n for k, kd, n in zip(out["check"], out["kind"],
                                              out["n"])
                        if k == "config" and kd == "counter"]
        cfg_viols = [1 for k, kd in zip(out["check"], out["kind"])
                     if k == "config" and kd == "violation"]
        assert cfg_counters == [1]   # once per rule per actor, not per batch
        assert sum(cfg_viols) == 1

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
