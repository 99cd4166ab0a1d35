"""Sensor-pipeline conformance over the sensor_readings fixture
(SURVEY.md §5.2 #1): engine verdicts vs a literal replay of the reference
streaming loop, plus timestamp normalization (M6)."""

import numpy as np
import pandas as pd
import pytest

from driftray.fixtures import sensor_readings
from tests.test_drift import reference_loop_oracle


@pytest.fixture(scope="module")
def sensor_ds(ray_session):
    import ray.data as rd

    table = sensor_readings(2000, seed=7, unusual_probability=0.08)
    return rd.from_arrow(table), table.to_pandas()


class TestSensorPipeline:
    def test_conformance_global_stream(self, sensor_ds):
        from driftray.pipelines.sensor import detect_stream

        ds, pdf = sensor_ds
        got = detect_stream(ds)[""]
        flags = pdf.sort_values("timestamp")["unusual"].fillna(False).tolist()
        oracle = reference_loop_oracle(flags)
        drift_got = [v for v in got if v.drift]
        assert len(drift_got) == len(oracle)
        for v, (i, cnt, ratio) in zip(drift_got, oracle):
            assert (v.end_row, v.unusual_count) == (i, cnt)
            assert v.unusual_ratio == pytest.approx(ratio)

    def test_per_type_partitions(self, sensor_ds):
        from driftray.pipelines.sensor import detect_stream, verdicts_table

        ds, pdf = sensor_ds
        per = detect_stream(ds, group_col="type")
        assert set(per) == set(pdf["type"].unique())
        for typ, verdicts in per.items():
            flags = (pdf[pdf["type"] == typ].sort_values("timestamp")
                     ["unusual"].fillna(False).tolist())
            oracle = reference_loop_oracle(flags)
            assert len([v for v in verdicts if v.drift]) == len(oracle)
        t = verdicts_table(per)
        assert t.num_rows == sum(len(v) for v in per.values())

    def test_timestamp_normalize_roundtrip(self, sensor_ds):
        from driftray.pipelines.sensor import normalize_timestamps

        ds, pdf = sensor_ds
        out = normalize_timestamps(ds).to_pandas()
        pd.testing.assert_series_equal(out["ts"], out["timestamp"],
                                       check_names=False)

    def test_window_trigger_math_pinned(self, ray_session):
        """Synthetic stream hitting the constant-divisor quirk: 5 unusual in
        the first 50 (ratio exactly 0.10 → NO drift), a 6th at row 60 →
        fires with ratio 0.12 over a 61-row window (sensor.py:188-193)."""
        import ray.data as rd

        from driftray.pipelines.sensor import detect_stream

        n = 200
        flags = np.zeros(n, dtype=bool)
        flags[:5] = True
        flags[60] = True
        pdf = pd.DataFrame({"timestamp": np.arange(n), "unusual": flags})
        got = detect_stream(rd.from_pandas(pdf))[""]
        fired = [v for v in got if v.drift]
        assert len(fired) == 1
        assert fired[0].end_row == 60
        assert fired[0].unusual_ratio == pytest.approx(0.12)
        assert fired[0].n_rows == 61


def _drift_triples(verdicts):
    return [(v.end_row, v.unusual_count, v.unusual_ratio)
            for v in verdicts if v.drift]


@pytest.fixture(scope="module")
def multi_block(ray_session):
    """Three blocks of shuffled rows: each block spans the whole time range,
    so with batches smaller than the input the sorted runs interleave and
    the driver merge decides the order."""
    import ray.data as rd

    table = sensor_readings(5000, seed=11, unusual_probability=0.08)
    perm = np.random.default_rng(5).permutation(table.num_rows)
    shuffled = table.take(perm)
    blocks = [shuffled.slice(0, 1500), shuffled.slice(1500, 1700),
              shuffled.slice(3200)]
    return rd.from_arrow(blocks), table.to_pandas()


class TestSortedRunMerge:
    @pytest.mark.parametrize("batch_size", [65536, 2000, 100])
    def test_multi_block_matches_reference_loop(self, multi_block, batch_size):
        """batch_size 2000 gives runs longer than one merge chunk, so the
        merge takes several bounded steps; 100 merges 50 runs."""
        from driftray.pipelines.sensor import _sorted_runs, detect_stream

        ds, pdf = multi_block
        runs = _sorted_runs(ds, ["timestamp"], "timestamp", batch_size)
        assert (len(runs) > 1) == (batch_size < len(pdf))
        pdf = pdf.sort_values("timestamp")
        flags = pdf["unusual"].eq(True).tolist()
        want = reference_loop_oracle(flags)
        got = detect_stream(ds, batch_size=batch_size)[""]
        assert _drift_triples(got) == want
        per = detect_stream(ds, group_col="type", batch_size=batch_size)
        assert set(per) == set(pdf["type"].unique())
        for typ, verdicts in per.items():
            flags = pdf[pdf["type"] == typ]["unusual"].eq(True).tolist()
            assert _drift_triples(verdicts) == reference_loop_oracle(flags)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_merge_steps_are_bounded(self, overlap):
        """400 runs of 30 rows, disjoint in time and listed out of order,
        join into one chain that is replayed in batch_size batches without
        a sort.  With one more run spanning them all, there are two chains,
        and each step still empties the chunk of one of them."""
        import pyarrow as pa

        from driftray.pipelines.sensor import _chain_runs, _merge_runs

        order = np.random.default_rng(2).permutation(400)
        runs = [pa.table({"t": np.arange(30 * i, 30 * i + 30)}) for i in order]
        if overlap:
            runs.append(pa.table({"t": np.arange(0, 12000, 4)}))
        n = sum(r.num_rows for r in runs)
        assert len(_chain_runs(runs, "t")) == 1 + overlap
        batches = list(_merge_runs(runs, "t", 2000))
        values = pa.concat_tables(batches)["t"].to_numpy()
        assert len(values) == n and (np.diff(values) >= 0).all()
        if overlap:  # chunk = 1024 rows: 12 + 3 chunks
            assert len(batches) <= 15
        else:
            assert [b.num_rows for b in batches] == [2000] * 6

    def test_merge_with_heavy_ties(self):
        """Two distinct order values across three runs longer than one
        merge chunk: every step must still advance, and the merged rows
        are all rows, in order, with the null tail last."""
        import itertools

        import pyarrow as pa

        from driftray.pipelines.sensor import _merge_runs

        rng = np.random.default_rng(9)
        runs, start = [], 0
        for n in (1500, 2600, 1100):
            order = pa.array(rng.integers(0, 2, n), mask=rng.random(n) < 0.05)
            runs.append(pa.table({"timestamp": order,
                                  "row": np.arange(start, start + n)})
                        .sort_by("timestamp"))
            start += n
        batches = _merge_runs(runs, "timestamp", 100)
        merged = pa.concat_tables(itertools.islice(batches, 1000))
        assert sorted(merged["row"].to_pylist()) == list(range(start))
        order = merged["timestamp"]
        valid = order.length() - order.null_count
        assert order.slice(valid).null_count == order.null_count
        values = order.slice(0, valid).to_numpy()
        assert (np.diff(values) >= 0).all()

    def test_empty_dataset(self, ray_session):
        import ray.data as rd

        from driftray.pipelines.sensor import detect_stream

        ds = rd.from_arrow(sensor_readings(10).slice(0, 0))
        assert detect_stream(ds) == {"": []}
        assert detect_stream(ds, group_col="type") == {}

    @pytest.mark.parametrize("kind", ["int64", "float64", "timestamp"])
    def test_null_order_values_replay_last(self, ray_session, kind):
        """Two blocks mixing null (or NaN / NaT) order values with 2400
        ordered rows: every null row is unusual and every other row is not,
        so the verdicts show where the nulls were replayed."""
        import ray.data as rd

        from driftray.drift import unusual_ratio_verdicts
        from driftray.pipelines.sensor import detect_stream

        order = np.random.default_rng(3).permutation(2400).astype(float)
        order = np.concatenate([order, np.full(600, np.nan)])
        flags = np.isnan(order)
        perm = np.random.default_rng(4).permutation(order.size)
        order, flags = order[perm], flags[perm]
        if kind == "int64":
            col = pd.array([None if np.isnan(o) else int(o) for o in order],
                           dtype="Int64")
        elif kind == "timestamp":
            col = (pd.Timestamp("2025-01-01", tz="UTC")
                   + pd.to_timedelta(order, unit="s"))
        else:
            col = order
        pdf = pd.DataFrame({"timestamp": col, "unusual": flags})
        ds = rd.from_pandas([pdf.iloc[:1300], pdf.iloc[1300:]])
        want = unusual_ratio_verdicts(np.repeat([False, True], [2400, 600]))
        assert want[0].end_row == 2405  # drifts only once the nulls arrive
        for batch_size in (65536, 2000, 100):
            assert detect_stream(ds, batch_size=batch_size)[""] == want
