"""Statistical-kernel units vs numpy oracles (SURVEY.md §5.2 #2, #7)."""

import numpy as np
import pytest

from driftray.bloom import BloomFilter
from driftray.drift import _cells
from driftray.sketches import HLL, Histogram, Moments, TDigest, dumps, hash64, loads, merge_all

rng = np.random.default_rng(7)


class TestMoments:
    def test_matches_numpy(self):
        x = rng.normal(5, 2, 10_000)
        m = Moments().update(x)
        assert m.n == x.size
        assert m.mean == pytest.approx(x.mean(), rel=1e-12)
        assert m.std == pytest.approx(x.std(), rel=1e-9)
        assert m.min == x.min() and m.max == x.max()

    def test_merge_equals_single_pass(self):
        x = rng.normal(0, 1, 5000)
        whole = Moments().update(x)
        parts = [Moments().update(c) for c in np.array_split(x, 7)]
        merged = merge_all(parts)
        assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
        assert merged.m2 == pytest.approx(whole.m2, rel=1e-9)

    def test_merge_order_invariance(self):
        chunks = [rng.normal(i, 1, 100) for i in range(5)]
        a = merge_all(Moments().update(c) for c in chunks)
        b = merge_all(Moments().update(c) for c in reversed(chunks))
        assert a.mean == pytest.approx(b.mean, rel=1e-12)
        assert a.m2 == pytest.approx(b.m2, rel=1e-9)

    def test_nan_skipped(self):
        m = Moments().update(np.array([1.0, np.nan, 3.0]))
        assert m.n == 2 and m.mean == 2.0


class TestTDigest:
    def test_quantiles_vs_numpy(self):
        x = rng.lognormal(7, 1, 50_000)
        td = TDigest()
        for c in np.array_split(x, 23):
            td.update(c)
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            assert td.quantile(q) == pytest.approx(
                np.quantile(x, q), rel=0.05), q

    def test_merge_vs_single(self):
        x = rng.normal(100, 15, 20_000)
        parts = [TDigest().update(c) for c in np.array_split(x, 9)]
        merged = merge_all(parts)
        assert merged.quantile(0.5) == pytest.approx(np.quantile(x, 0.5), rel=0.02)
        assert merged.n == x.size

    def test_cdf_monotone(self):
        x = rng.normal(0, 1, 10_000)
        td = TDigest().update(x)
        grid = np.linspace(-4, 4, 100)
        c = td.cdf(grid)
        assert (np.diff(c) >= -1e-12).all()
        assert c[0] < 0.01 and c[-1] > 0.99

    def test_pickle_roundtrip(self):
        td = TDigest().update(rng.normal(0, 1, 1000))
        td2 = loads(dumps(td))
        assert td2.quantile(0.5) == td.quantile(0.5)


class TestHLL:
    def test_estimate_tolerance(self):
        vals = np.array([f"item-{i}" for i in range(100_000)], dtype=object)
        h = HLL()
        for c in np.array_split(vals, 11):
            h.update(c)
        h.update(vals[:5000])  # duplicates must not inflate
        assert h.estimate() == pytest.approx(100_000, rel=0.03)

    def test_merge(self):
        a = HLL().update(np.arange(0, 50_000))
        b = HLL().update(np.arange(25_000, 75_000))
        assert a.merge(b).estimate() == pytest.approx(75_000, rel=0.03)

    def test_small_cardinality(self):
        h = HLL().update(np.array(["a", "b", "c"], dtype=object))
        assert h.estimate() == pytest.approx(3, abs=0.5)


class TestHistogram:
    def test_counts_match_numpy(self):
        x = rng.uniform(0, 10, 10_000)
        h = Histogram(0, 10, 20).update(x)
        np_counts, _ = np.histogram(x, bins=20, range=(0, 10))
        assert (h.counts == np_counts).all()
        assert h.under == 0 and h.over == 0

    def test_overflow_buckets(self):
        h = Histogram(0, 1, 4).update(np.array([-1.0, 0.5, 2.0, np.nan]))
        assert h.under == 1 and h.over == 1 and h.nan == 1 and h.counts.sum() == 1

    def test_merge_and_coarsen(self):
        x = rng.normal(0, 1, 8000)
        h1 = Histogram(-4, 4, 32).update(x[:4000])
        h2 = Histogram(-4, 4, 32).update(x[4000:])
        h = h1.merge(h2)
        assert h.counts.sum() + h.under + h.over == 8000
        # PSI/JS fold the 32 bins into 8 cells of 4, plus under/overflow
        cells = _cells(h, 8)
        assert cells.size == 8 + 2 and cells[1:-1].sum() == h.counts.sum()
        assert cells[0] == h.under and cells[-1] == h.over
        assert (cells[1:-1] == h.counts.reshape(8, 4).sum(axis=1)).all()
        # 20 bins fold by 3: six full cells and one padded cell of 2 bins
        h20 = Histogram(-4, 4, 20).update(x)
        assert (_cells(h20, 8)[1:-1] == [*h20.counts[:18].reshape(6, 3).sum(axis=1),
                                         h20.counts[18:].sum()]).all()

    def test_log_edges(self):
        x = rng.lognormal(7, 1, 10_000)
        edges = np.geomspace(x.min(), x.max(), 33)
        h = Histogram.from_edges(edges).update(x)
        assert h.counts.sum() == 10_000
        # log edges spread mass: no single bin hoards >30%
        assert h.counts.max() / 10_000 < 0.3


class TestBloom:
    def test_no_false_negatives(self):
        keys = np.array([f"k{i}" for i in range(20_000)], dtype=object)
        bf = BloomFilter(20_000, fpr=1e-3)
        bf.add(keys)
        assert bf.contains(keys).all()

    def test_fpr_bounded(self):
        keys = np.array([f"k{i}" for i in range(20_000)], dtype=object)
        other = np.array([f"x{i}" for i in range(20_000)], dtype=object)
        bf = BloomFilter(20_000, fpr=1e-3)
        bf.add(keys)
        assert bf.contains(other).mean() < 0.01

    def test_merge(self):
        a, b = BloomFilter(1000, 1e-3), BloomFilter(1000, 1e-3)
        a.add(np.array(["x"], dtype=object))
        b.add(np.array(["y"], dtype=object))
        a.merge(b)
        assert a.contains(np.array(["x", "y"], dtype=object)).all()


def test_hash64_deterministic_and_typed():
    a = hash64(np.array(["a", "b", "a"], dtype=object))
    assert a[0] == a[2] != a[1]
    b = hash64(np.arange(5))
    assert (hash64(np.arange(5)) == b).all()
