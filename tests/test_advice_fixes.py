"""Regression tests for the round-1 advisor findings (ADVICE.md r1):

* null-stable key hashing across batches (int64-with-null promotion bug),
* table-global uniqueness kept out of every data window,
* mean_difference returns 0 (not inf) for a zero-std baseline.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from driftray.checks import hash_keys
from driftray.spec import ColumnSpec, TableSpec


def _dup_spec() -> TableSpec:
    return TableSpec(
        name="t",
        columns=[ColumnSpec("k", required=True)],
        unique_key=("k",),
        order_column="ord",
    )


class TestNullStableHashing:
    def test_int_column_hash_unaffected_by_null_in_batch(self):
        clean = pa.table({"k": pa.array([42, 7], pa.int64())})
        with_null = pa.table({"k": pa.array([42, None], pa.int64())})
        h_clean = hash_keys(clean, ["k"])
        h_null = hash_keys(with_null, ["k"])
        assert h_clean[0] == h_null[0]  # 42 hashes identically in both
        assert h_clean[1] != h_null[1]

    def test_nulls_hash_to_stable_sentinel(self):
        a = pa.table({"k": pa.array([None, 1], pa.int64())})
        b = pa.table({"k": pa.array([2, None], pa.int64())})
        assert hash_keys(a, ["k"])[0] == hash_keys(b, ["k"])[1]

    def test_float_and_string_and_ts_stable(self):
        for arr in (pa.array([1.5, None], pa.float64()),
                    pa.array(["x", None], pa.string()),
                    pa.array([pd.Timestamp("2024-01-01"), None])):
            clean = pa.table({"k": arr.take(pa.array([0]))})
            mixed = pa.table({"k": arr})
            assert hash_keys(clean, ["k"])[0] == hash_keys(mixed, ["k"])[0]

    def test_duplicate_across_null_and_clean_blocks_found(self, ray_session, tmp_path):
        """The advisor's repro: dup key 42 spans a clean block and a block
        containing one null — must be reported as a duplicate."""
        from driftray.pipeline import uniqueness_violations

        t1 = pa.table({"k": pa.array([42, 1, 2], pa.int64()),
                       "ord": pa.array([10, 11, 12], pa.int64())})
        t2 = pa.table({"k": pa.array([42, None, 3], pa.int64()),
                       "ord": pa.array([20, 21, 22], pa.int64())})
        # each block hashed alone, as the kernel hashes each batch
        runs = [hash_keys(t, ["k"]).view(np.int64) for t in (t1, t2)]
        dup, extra, winners = uniqueness_violations(
            lambda fn: [fn(t1), fn(t2)], _dup_spec(), np.concatenate(runs))
        assert extra == 1
        refs = dup["row_ref"].to_pylist()
        assert refs == ["42"]
        assert winners is not None
        w = winners.to_pandas()
        assert list(w["key"]) == ["42"] and int(w["win_order"].iloc[0]) == 10


class TestMeanDifferenceZeroStd:
    def test_returns_zero_not_inf(self):
        from driftray.drift import mean_difference

        assert mean_difference(5.0, 0.0, 9.0) == 0.0
        assert mean_difference(5.0, float("nan"), 9.0) == 0.0
        assert mean_difference(5.0, 2.0, 9.0) == pytest.approx(2.0)


class TestUniquenessWindowAttribution:
    def test_uniqueness_stays_out_of_data_windows(self, ray_session):
        """Key uniqueness is table-global: ``validate_dataset`` folds it
        into no window's counters, and ``uniqueness_violations`` over the
        same rows and the windows' key-hash runs counts the repeat."""
        from driftray.pipeline import (_concat_runs, uniqueness_violations,
                                       validate_dataset)

        # key 42 repeats ACROSS windows 0 and 1
        t = pa.table({
            "k": pa.array([42, 1, 42, 2], pa.int64()),
            "ord": pa.array([1, 2, 3, 4], pa.int64()),
            "window_id": pa.array([0, 0, 1, 1], pa.int64()),
        })
        map_rows = lambda fn: [fn(t)]  # noqa: E731
        results = validate_dataset(map_rows, _dup_spec(), window_column="window_id")
        assert set(results) == {0, 1}
        for w in (0, 1):
            assert "uniqueness|k" not in results[w].counters
            assert results[w].quality_score == 1.0
        dup, extra, _winners = uniqueness_violations(
            map_rows, _dup_spec(), _concat_runs(r.key_hashes for r in results.values()))
        assert extra == 1 and dup["row_ref"].to_pylist() == ["42"]
