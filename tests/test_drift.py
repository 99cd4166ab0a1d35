"""Drift kernels: reference-loop conformance + statistical sanity
(SURVEY.md §5.2 #1, #2)."""

import numpy as np
import pytest

from driftray.drift import (js_divergence, ks_2sample, ks_from_digests, psi,
                            psi_from_counts, unusual_ratio_verdicts)
from driftray.sketches import Histogram, TDigest

rng = np.random.default_rng(11)


# ---------------------------------------------------------------------------
# pure-Python oracle: a literal replay of the reference streaming loop
# (/root/reference/src/data_sources/iot/sensor.py:160-194 semantics) —
# window list, constant-divisor ratio, reset only on drift.
# ---------------------------------------------------------------------------


def reference_loop_oracle(unusual_flags, window_size=50, threshold=0.10):
    window = []
    alerts = []  # (event_index, unusual_count, ratio)
    for i, flag in enumerate(unusual_flags):
        window.append(bool(flag))
        if len(window) >= window_size:
            unusual_count = sum(window)
            ratio = unusual_count / window_size   # constant divisor
            if ratio > threshold:
                alerts.append((i, unusual_count, ratio))
                window = []                        # reset ONLY on drift
    return alerts


class TestReferenceConformance:
    def _compare(self, flags):
        oracle = reference_loop_oracle(flags)
        ours = [v for v in unusual_ratio_verdicts(np.asarray(flags)) if v.drift]
        assert len(ours) == len(oracle)
        for v, (i, cnt, ratio) in zip(ours, oracle):
            assert v.end_row == i
            assert v.unusual_count == cnt
            assert v.unusual_ratio == pytest.approx(ratio)

    def test_no_drift(self):
        self._compare([False] * 500)

    def test_burst_drift(self):
        flags = [False] * 500
        for j in range(10, 22):
            flags[j] = True
        self._compare(flags)

    def test_growing_window_constant_divisor(self):
        # 5 unusual in the first 50 (ratio 0.10, NOT > threshold), then one
        # more at row 60 → ratio 6/50 = 0.12 fires at row 60 with a 61-row
        # window — the reference's quirky math (sensor.py:188-193).
        flags = [False] * 200
        for j in range(5):
            flags[j] = True
        flags[60] = True
        oracle = reference_loop_oracle(flags)
        assert oracle == [(60, 6, 0.12)]
        self._compare(flags)

    def test_randomized(self):
        for seed in range(5):
            r = np.random.default_rng(seed)
            flags = (r.random(2000) < 0.08).tolist()
            self._compare(flags)

    def test_verdict_windows_partition_rows(self):
        flags = (rng.random(1000) < 0.2)
        vs = unusual_ratio_verdicts(flags)
        assert vs[0].start_row == 0
        for a, b in zip(vs, vs[1:]):
            assert b.start_row == a.end_row + 1
        assert vs[-1].end_row == 999


class TestKS:
    def test_identical_samples(self):
        x = rng.normal(0, 1, 1000)
        d, p = ks_2sample(x, x)
        assert d == 0.0 and p == pytest.approx(1.0)

    def test_known_shift_detected(self):
        a = rng.normal(0, 1, 3000)
        b = rng.normal(0.4, 1, 3000)
        d, p = ks_2sample(a, b)
        assert d > 0.1 and p < 1e-6

    def test_same_distribution_not_detected(self):
        a = rng.normal(0, 1, 3000)
        b = rng.normal(0, 1, 3000)
        d, p = ks_2sample(a, b)
        assert p > 0.01

    def test_statistic_exact_small(self):
        # hand-computable: a={1,2,3}, b={4,5,6} → D = 1.0
        d, _ = ks_2sample([1, 2, 3], [4, 5, 6])
        assert d == 1.0
        # a={1,3}, b={2,4} → D = 0.5
        d, _ = ks_2sample([1, 3], [2, 4])
        assert d == 0.5

    def test_digest_ks_approximates_exact(self):
        a = rng.normal(0, 1, 30_000)
        b = rng.normal(0.5, 1, 30_000)
        exact, _ = ks_2sample(a, b)
        approx = ks_from_digests(TDigest().update(a), TDigest().update(b))
        assert approx == pytest.approx(exact, abs=0.02)

    def test_digest_ks_null_is_small(self):
        a = rng.normal(0, 1, 30_000)
        b = rng.normal(0, 1, 30_000)
        assert ks_from_digests(TDigest().update(a), TDigest().update(b)) < 0.02


class TestPSIJS:
    def _hists(self, mu2):
        h1 = Histogram(-5, 5, 32).update(rng.normal(0, 1, 20_000))
        h2 = Histogram(-5, 5, 32).update(rng.normal(mu2, 1, 20_000))
        return h1, h2

    def test_shift_detected(self):
        h1, h2 = self._hists(1.0)
        assert psi(h1, h2) > 0.2
        assert js_divergence(h1, h2) > 0.05

    def test_null_small(self):
        h1, h2 = self._hists(0.0)
        assert psi(h1, h2) < 0.05
        assert js_divergence(h1, h2) < 0.01

    def test_psi_from_counts_formula(self):
        # hand check: p=(0.5,0.5), q=(0.25,0.75)
        v = psi_from_counts(np.array([50, 50]), np.array([25, 75]))
        expected = (0.25 - 0.5) * np.log(0.25 / 0.5) + (0.75 - 0.5) * np.log(0.75 / 0.5)
        assert v == pytest.approx(expected, rel=1e-6)

    def test_js_bounded(self):
        h1 = Histogram(0, 1, 8).update(rng.uniform(0, 0.1, 1000))
        h2 = Histogram(0, 1, 8).update(rng.uniform(0.9, 1.0, 1000))
        v = js_divergence(h1, h2)
        assert 0 < v <= np.log(2) + 1e-9


# four profile columns over groups x, y, z, each with its own NaN rows, so
# each column's group shares (and its categorical PSI row) differ
_DRIFT_ROWS_SCRIPT = """
import json
import numpy as np
from driftray.pipeline import Baseline, drift_report
from driftray.sketches import ColumnProfile
from driftray.spec import TableSpec

COLS = ("stars", "forks", "size", "lines")

def profiles(seed):
    rng = np.random.default_rng(seed)
    out = {}
    for c in COLS:
        for g in ("x", "y", "z"):
            v = rng.normal(size=200)
            v[: rng.integers(0, 100)] = np.nan
            out[g, c] = ColumnProfile.of(c, g, v, np.linspace(-4, 4, 33))
    return out

spec = TableSpec(name="t", profile_columns=COLS, group_column="g")
print(json.dumps(drift_report(Baseline(profiles(0)), profiles(1), spec)))
"""


def test_drift_rows_do_not_depend_on_hash_seed():
    """``drift_report`` rows, categorical ones included, come in the same
    order whatever ``PYTHONHASHSEED`` the process runs under."""
    import json
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    rows = []
    for seed in ("1", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": repo}
        rows.append(json.loads(subprocess.run(
            [sys.executable, "-c", _DRIFT_ROWS_SCRIPT], cwd=repo, env=env,
            capture_output=True, text=True, check=True).stdout))
    psis = [r["psi"] for r in rows[0] if r["kind"] == "categorical"]
    assert len(psis) == 4 and len(set(psis)) == 4
    assert rows[0] == rows[1]


def test_windowed_drift_series_matches_direct(ray_session):
    """Distributed per-day PSI/JS series == direct computation on raw
    rows with the same fixed edges."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from driftray.drift import windowed_drift_series

    rng = np.random.default_rng(9)
    n = 6000
    days = pd.to_datetime("2024-03-01") + pd.to_timedelta(
        rng.integers(0, 4, size=n), unit="D")
    shift = days.day.to_numpy() * 0.8          # day-dependent mean drift
    df = pd.DataFrame({"ts": days + pd.to_timedelta(
        rng.integers(0, 86_400, size=n), unit="s"),
        "v": rng.normal(10, 2, size=n) + shift})
    edges = np.linspace(5, 20, 16)

    out = windowed_drift_series(rd.from_pandas(df), "ts", "v", edges)
    assert len(out) == 4 and np.isnan(out["psi"].iloc[0])
    assert (out["psi"].iloc[1:] > 0).all()

    # direct oracle
    df["day"] = df["ts"].dt.floor("D")
    prev = None
    for i, (day, grp) in enumerate(sorted(df.groupby("day"),
                                          key=lambda kv: kv[0])):
        b = np.searchsorted(edges, grp["v"].to_numpy(), side="right")
        cur = np.bincount(b, minlength=len(edges) + 1)
        if prev is not None:
            eps = 1e-6
            p = np.clip(prev / prev.sum(), eps, None)
            q = np.clip(cur / cur.sum(), eps, None)
            p, q = p / p.sum(), q / q.sum()
            exp_psi = float(np.sum((q - p) * np.log(q / p)))
            assert abs(out["psi"].iloc[i] - exp_psi) < 1e-12
        assert out["n"].iloc[i] == len(grp)
        prev = cur

    # more blocks than rows: the empty blocks change nothing
    few = df.head(5)
    pd.testing.assert_frame_equal(
        windowed_drift_series(rd.from_pandas(few).repartition(8), "ts", "v", edges),
        windowed_drift_series(rd.from_pandas(few), "ts", "v", edges))


class TestWasserstein:
    def test_shifted_mass(self):
        import numpy as np
        from driftray.drift import wasserstein_from_hist
        from driftray.sketches import Histogram
        # all mass in bin [0,1) vs all in [3,4) → W1 = 3
        a = Histogram(0.0, 4.0, 4).update(np.full(100, 0.5))
        b = Histogram(0.0, 4.0, 4).update(np.full(100, 3.5))
        assert abs(wasserstein_from_hist(a, b) - 3.0) < 1e-12

    def test_identical_is_zero(self):
        import numpy as np
        from driftray.drift import wasserstein_from_hist
        from driftray.sketches import Histogram
        v = np.random.default_rng(1).uniform(0, 4, 1000)
        a = Histogram(0.0, 4.0, 8).update(v)
        b = Histogram(0.0, 4.0, 8).update(v)
        assert wasserstein_from_hist(a, b) == 0.0

    def test_matches_scipy_style_reference(self):
        import numpy as np
        from driftray.drift import wasserstein_from_hist
        from driftray.sketches import Histogram
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 0.5, 20_000)
        y = rng.normal(2.6, 0.5, 20_000)
        a = Histogram(0.0, 5.0, 100).update(x)
        b = Histogram(0.0, 5.0, 100).update(y)
        # reference: W1 of the binned distributions via quantile functions
        w = wasserstein_from_hist(a, b)
        assert abs(w - 0.6) < 0.05      # W1 of two equal-σ normals = |Δμ|

    def test_edge_mismatch_raises(self):
        import numpy as np
        import pytest
        from driftray.drift import wasserstein_from_hist
        from driftray.sketches import Histogram
        with pytest.raises(ValueError):
            wasserstein_from_hist(Histogram(0, 1, 4), Histogram(0, 2, 4))


class TestKsFromHist:
    def test_matches_numpy_on_shared_edges(self):
        import numpy as np

        from driftray.drift import ks_from_hist
        from driftray.sketches import Histogram

        rng = np.random.default_rng(3)
        edges = np.linspace(0.0, 10.0, 11)
        a = rng.uniform(0, 10, 5000)
        b = rng.uniform(2, 10, 4000)          # shifted → real gap
        ha = Histogram.from_edges(edges).update(a)
        hb = Histogram.from_edges(edges).update(b)
        got = ks_from_hist(ha, hb)

        pa_ = np.histogram(a, bins=edges)[0] / len(a)
        pb_ = np.histogram(b, bins=edges)[0] / len(b)
        ref = np.abs(np.cumsum(pa_) - np.cumsum(pb_)).max()
        assert abs(got - ref) < 1e-12
        assert got > 0.15                      # the shift is visible

    def test_identical_histograms_zero(self):
        import numpy as np

        from driftray.drift import ks_from_hist
        from driftray.sketches import Histogram

        edges = np.linspace(0.0, 1.0, 5)
        h = Histogram.from_edges(edges).update(
            np.array([0.1, 0.4, 0.9]))
        assert ks_from_hist(h, h) == 0.0

    def test_mismatched_edges_raise(self):
        import numpy as np
        import pytest

        from driftray.drift import ks_from_hist
        from driftray.sketches import Histogram

        h1 = Histogram.from_edges(np.linspace(0, 1, 5))
        h2 = Histogram.from_edges(np.linspace(0, 2, 5))
        with pytest.raises(ValueError, match="identical bin edges"):
            ks_from_hist(h1, h2)


class TestKsExactDistributed:
    """ks_exact_distributed vs the in-memory exact ks_2sample."""

    def _run(self, a, b, ray_session, nblocks=4):
        import pandas as pd
        import ray.data as rd

        from driftray.drift import ks_exact_distributed

        df = pd.DataFrame({
            "value": np.concatenate([a, b]),
            "a": np.r_[np.ones(len(a), np.int64), np.zeros(len(b), np.int64)],
            "b": np.r_[np.zeros(len(a), np.int64), np.ones(len(b), np.int64)],
        }).sample(frac=1.0, random_state=7)   # shuffle: order-insensitive
        ds = rd.from_pandas(df).repartition(nblocks)
        return ks_exact_distributed(ds, "value", "a", "b")

    def test_matches_exact_with_ties(self, ray_session):
        r = rng
        a = np.round(r.normal(0.0, 1.0, 600), 1)       # rounding ⇒ ties
        b = np.round(r.normal(0.4, 1.2, 450), 1)
        got = self._run(a, b, ray_session)
        exact, _ = ks_2sample(a, b)
        assert got["n_a"] == 600 and got["n_b"] == 450
        assert abs(got["d"] - exact) < 1e-12
        # the numerator is the exact integer form of the same statistic
        assert got["d_num"] == round(exact * 600 * 450)

    def test_nan_dropped_and_identical_zero(self, ray_session):
        a = np.array([1.0, 2.0, np.nan, 3.0])
        got = self._run(a, a.copy(), ray_session, nblocks=2)
        assert got == {"n_a": 3, "n_b": 3, "d_num": 0, "d": 0.0}

    def test_empty_side_nan(self, ray_session):
        got = self._run(np.array([1.0, 2.0]), np.array([]), ray_session)
        assert got["n_b"] == 0 and np.isnan(got["d"])
