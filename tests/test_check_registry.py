"""SURVEY.md §2.10 extension surface: an out-of-tree check registered via
``@register_check`` runs inside the kernel with NO edits to checks.py.

The example class is defined in a LOCAL scope so cloudpickle ships it by
value to Ray workers (a real out-of-tree package would simply be importable
on the workers)."""

import numpy as np
import pyarrow as pa
import pytest

from driftray.checks import CHECK_REGISTRY, ValidationKernel, register_check
from driftray.spec import ColumnSpec, TableSpec


def make_regex_check():
    import pyarrow.compute as pc

    from driftray.checks import BatchCheck

    @register_check("regex_match_rate")
    class RegexMatchRateCheck(BatchCheck):
        """Rows whose ``column`` does NOT match ``pattern`` are violations."""

        def __init__(self, column: str, pattern: str):
            self.column = column
            self.pattern = pattern

        def process(self, ctx) -> None:
            if self.column not in ctx.batch.column_names:
                return
            ok = pc.match_substring_regex(
                pc.fill_null(ctx.batch[self.column], ""), self.pattern)
            mask = ~np.asarray(ok.to_pandas(), dtype=bool)
            ctx.emit_violations(mask, "regex", self.column,
                                f"does not match {self.pattern!r}")

    return RegexMatchRateCheck


@pytest.fixture(scope="module")
def regex_check_cls():
    return make_regex_check()


def _spec() -> TableSpec:
    return TableSpec(
        name="t",
        columns=[ColumnSpec("path", required=True)],
        unique_key=("path",),
        order_column="path",
        custom_checks=(("regex_match_rate",
                        {"column": "path", "pattern": r"^[a-z0-9_/.]+$"}),),
    )


class TestCheckRegistry:
    def test_registered(self, regex_check_cls):
        assert CHECK_REGISTRY["regex_match_rate"] is regex_check_cls

    def test_kernel_runs_custom_check(self, regex_check_cls):
        kernel = ValidationKernel(_spec())
        batch = pa.table({"path": ["src/a.py", "BAD PATH!", "lib/b.c"]})
        findings = kernel(batch).to_pandas()
        counters = findings[findings["kind"] == "counter"]
        regex_row = counters[counters["check"] == "regex"]
        assert int(regex_row["n"].iloc[0]) == 1
        viol = findings[(findings["kind"] == "violation")
                        & (findings["check"] == "regex")]
        assert list(viol["row_ref"]) == ["BAD PATH!"]

    def test_end_to_end_via_validate_dataset(self, regex_check_cls, ray_session,
                                             tmp_path):
        """The kernel, custom check included, runs in a Ray task."""
        from functools import partial

        import pyarrow.parquet as pq

        from driftray.ops.zonemap import map_row_groups
        from driftray.pipeline import validate_dataset

        path = str(tmp_path / "paths.parquet")
        pq.write_table(pa.table({"path": ["ok/one.py", "not ok", "ok/two.py"]}), path)
        results = validate_dataset(partial(map_row_groups, [(path, 0)]), _spec())
        res = results[-1]
        assert res.counters.get("regex|path") == 1
        assert res.quality_score == pytest.approx(2 / 3)

    def test_unregistered_kind_raises(self, regex_check_cls):
        spec = _spec()
        spec.custom_checks = (("nope", {}),)
        with pytest.raises(KeyError, match="nope"):
            ValidationKernel(spec)

    def test_spec_from_dict_carries_custom_checks(self):
        from driftray.spec import spec_from_dict

        d = {"name": "t",
             "columns": [{"name": "path", "required": True}],
             "custom_checks": [{"kind": "regex_match_rate",
                                "params": {"column": "path",
                                           "pattern": "^x"}}]}
        spec = spec_from_dict(d)
        assert spec.custom_checks == (("regex_match_rate",
                                       {"column": "path", "pattern": "^x"}),)
