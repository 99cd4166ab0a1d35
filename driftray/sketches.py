"""Mergeable sketches for per-column statistical profiles.

These are the engine-side replacements for the reference's in-memory
per-window distribution profiles (``/root/reference/DESIGN.md:539-551``:
mean, std, min, max, median, 10-bin histogram) and seen-set uniqueness
(``/root/reference/src/data_sources/web/news.py:74-82``).  Every sketch is

  * updated vectorized from numpy arrays inside ``map_batches`` partials,
  * mergeable in any order (merge(a, b) == merge(b, a) — property-tested),
  * small and picklable, so per-batch partials flow through the object
    store as one row per (group, column) and reduce in a tiny final stage.

That mergeability is what makes every profile/drift aggregate free of raw-row
shuffles: blocks emit sketches, sketches tree-merge.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass
from typing import ClassVar, Iterable

import numpy as np
from pandas.util import hash_array


def hash64(values: np.ndarray) -> np.ndarray:
    """Deterministic vectorized 64-bit hash of an arbitrary array.

    Stable across processes (unlike Python ``hash``), used by HLL, Bloom
    filters, MinHash and hash-partitioned dedup.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iufb":
        arr = arr.astype(object)
    return hash_array(arr, categorize=False).astype(np.uint64)


# ---------------------------------------------------------------------------
# Welford / Chan parallel moments
# ---------------------------------------------------------------------------


class Moments:
    """Streaming count/mean/M2/min/max with Chan's parallel merge.

    Replaces ``np.mean/np.std`` over a materialized window
    (``DESIGN.md:541-547``) with a single-pass mergeable accumulator.
    """

    __slots__ = ("n", "mean", "m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def update(self, values: np.ndarray) -> "Moments":
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if v.size == 0:
            return self
        n_b = int(v.size)
        mean_b = float(v.mean())
        m2_b = float(((v - mean_b) ** 2).sum())
        self._combine(n_b, mean_b, m2_b, float(v.min()), float(v.max()))
        return self

    def merge(self, other: "Moments") -> "Moments":
        self._combine(other.n, other.mean, other.m2, other.min, other.max)
        return self

    def _combine(self, n_b: int, mean_b: float, m2_b: float, min_b: float, max_b: float) -> None:
        if n_b == 0:
            return
        n_a = self.n
        delta = mean_b - self.mean
        n = n_a + n_b
        self.mean += delta * n_b / n
        self.m2 += m2_b + delta * delta * n_a * n_b / n
        self.n = n
        self.min = min(self.min, min_b)
        self.max = max(self.max, max_b)

    @property
    def variance(self) -> float:
        return self.m2 / self.n if self.n else float("nan")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance) if self.n else float("nan")

    def to_dict(self) -> dict:
        return {
            "count": self.n,
            "mean": self.mean if self.n else None,
            "std": self.std if self.n else None,
            "min": self.min if self.n else None,
            "max": self.max if self.n else None,
        }


# ---------------------------------------------------------------------------
# Fixed-bin histogram (PSI / JS divergence substrate)
# ---------------------------------------------------------------------------


class Histogram:
    """Fixed-edge histogram with underflow/overflow buckets.

    The reference profiles 10-bin ``np.histogram`` per column
    (``DESIGN.md:548-550``); fixing the bin edges up front makes the
    counts mergeable across blocks and comparable across windows, which
    is exactly what PSI / JS need.  Edges may be arbitrary (e.g.
    log-spaced for heavy-tailed columns like content length).
    """

    __slots__ = ("edges", "counts", "under", "over", "nan")

    def __init__(self, lo: float, hi: float, nbins: int = 10) -> None:
        if not (hi > lo):
            hi = lo + 1.0
        self.edges = np.linspace(float(lo), float(hi), int(nbins) + 1)
        self.counts = np.zeros(int(nbins), dtype=np.int64)
        self.under = 0
        self.over = 0
        self.nan = 0

    @classmethod
    def from_edges(cls, edges: np.ndarray) -> "Histogram":
        h = cls.__new__(cls)
        h.edges = np.asarray(edges, dtype=np.float64)
        h.counts = np.zeros(h.edges.size - 1, dtype=np.int64)
        h.under = 0
        h.over = 0
        h.nan = 0
        return h

    @property
    def nbins(self) -> int:
        return self.counts.size

    def update(self, values: np.ndarray) -> "Histogram":
        v = np.asarray(values, dtype=np.float64)
        nan_mask = np.isnan(v)
        self.nan += int(nan_mask.sum())
        v = v[~nan_mask]
        if v.size == 0:
            return self
        idx = np.searchsorted(self.edges, v, side="right") - 1
        idx[v == self.edges[-1]] = self.nbins - 1  # right edge inclusive, like np.histogram
        self.under += int((idx < 0).sum())
        self.over += int((idx >= self.nbins).sum())
        keep = (idx >= 0) & (idx < self.nbins)
        self.counts += np.bincount(idx[keep], minlength=self.nbins)
        return self

    def merge(self, other: "Histogram") -> "Histogram":
        assert np.array_equal(self.edges, other.edges)
        self.counts += other.counts
        self.under += other.under
        self.over += other.over
        self.nan += other.nan
        return self

    def coarsen(self, max_bins: int = 8) -> "Histogram":
        """Merge adjacent bins down to <= max_bins (noise control for PSI/JS
        on small samples; counts stay exact)."""
        if self.nbins <= max_bins:
            return self
        factor = int(np.ceil(self.nbins / max_bins))
        pad = (-self.nbins) % factor
        counts = np.concatenate([self.counts, np.zeros(pad, dtype=np.int64)])
        h = Histogram.from_edges(self.edges[::factor].tolist() + [self.edges[-1]]
                                 if (self.nbins % factor) else self.edges[::factor])
        h.counts = counts.reshape(-1, factor).sum(axis=1)
        h.edges = h.edges[: h.counts.size + 1]
        h.under, h.over, h.nan = self.under, self.over, self.nan
        return h


# ---------------------------------------------------------------------------
# t-digest (merging variant) — quantiles / median / ECDF at scale
# ---------------------------------------------------------------------------


def _k_scale(q: np.ndarray, delta: float) -> np.ndarray:
    # k1 scale function: k(q) = delta/(2*pi) * asin(2q - 1)
    return delta / (2.0 * math.pi) * np.arcsin(2.0 * np.clip(q, 0.0, 1.0) - 1.0)


class TDigest:
    """Merging t-digest (Dunning & Ertl) for quantiles and ECDF.

    Gives the reference's ``median`` profile field (``DESIGN.md:546``) and a
    KS-capable ECDF without materializing the column.  Accuracy is highest
    at the tails (k1 scale function); tolerance-tested vs ``np.quantile``.
    """

    __slots__ = ("delta", "means", "weights", "_buf_v", "_buf_w", "_buf_n")

    def __init__(self, delta: int = 200) -> None:
        self.delta = int(delta)
        self.means = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)
        self._buf_v: list[np.ndarray] = []
        self._buf_w: list[np.ndarray] = []
        self._buf_n = 0

    @property
    def n(self) -> float:
        self._flush()
        return float(self.weights.sum())

    def update(self, values: np.ndarray) -> "TDigest":
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if v.size == 0:
            return self
        self._buf_v.append(v)
        self._buf_w.append(np.ones(v.size, dtype=np.float64))
        self._buf_n += v.size
        if self._buf_n > 32 * self.delta:
            self._flush()
        return self

    def merge(self, other: "TDigest") -> "TDigest":
        other._flush()
        if other.means.size:
            self._buf_v.append(other.means.copy())
            self._buf_w.append(other.weights.copy())
            self._buf_n += other.means.size
        self._flush()
        return self

    def _flush(self) -> None:
        if not self._buf_v and self.means.size <= 2 * self.delta:
            return
        vs = np.concatenate([self.means] + self._buf_v) if self._buf_v else self.means
        ws = np.concatenate([self.weights] + self._buf_w) if self._buf_w else self.weights
        self._buf_v, self._buf_w, self._buf_n = [], [], 0
        if vs.size == 0:
            return
        order = np.argsort(vs, kind="stable")
        vs, ws = vs[order], ws[order]
        total = ws.sum()
        # Vectorized compression: each sorted point's quantile midpoint maps
        # through the k1 scale; points sharing floor(k) merge into one
        # centroid (each cluster spans ≤ 1 k-unit — the t-digest invariant).
        q = (np.cumsum(ws) - ws / 2.0) / total
        k = _k_scale(q, self.delta)
        cluster = np.floor(k - k[0]).astype(np.int64)
        # weighted mean per cluster via bincount — O(n) numpy, no Python loop
        w_sum = np.bincount(cluster, weights=ws)
        vw_sum = np.bincount(cluster, weights=vs * ws)
        keep = w_sum > 0
        self.means = vw_sum[keep] / w_sum[keep]
        self.weights = w_sum[keep]

    def quantile(self, q: float) -> float:
        self._flush()
        if self.means.size == 0:
            return float("nan")
        if self.means.size == 1:
            return float(self.means[0])
        w = self.weights
        total = w.sum()
        # centroid midpoints in cumulative-weight space
        cum = np.cumsum(w) - w / 2.0
        target = q * total
        if target <= cum[0]:
            return float(self.means[0])
        if target >= cum[-1]:
            return float(self.means[-1])
        return float(np.interp(target, cum, self.means))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        self._flush()
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if self.means.size == 0:
            return np.full(x.shape, np.nan)
        w = self.weights
        total = w.sum()
        cum = np.cumsum(w) - w / 2.0
        out = np.interp(x, self.means, cum / total, left=0.0, right=1.0)
        return out


# ---------------------------------------------------------------------------
# the column profile: the one mergeable unit the engine stores and compares
# ---------------------------------------------------------------------------


@dataclass
class ColumnProfile:
    """One (group, column) profile — the engine's version of the
    reference's feature distribution (``DESIGN.md:539-551``): moments
    for mean/std/min/max, a t-digest for the median and the KS ECDF, a
    fixed-edge histogram for PSI/JS.  Built per window slice in the
    kernel, merged in row order on the driver, stored one part per
    column (``PARTS``)."""

    PARTS: ClassVar[tuple[str, ...]] = ("moments", "tdigest", "hist")

    column: str
    group: str
    moments: Moments
    tdigest: TDigest
    hist: Histogram

    @classmethod
    def of(cls, column: str, group: str, values: np.ndarray,
           edges: np.ndarray | None = None) -> "ColumnProfile":
        """The profile of ``values``; without ``edges`` the histogram has
        10 bins over [0, 1]."""
        hist = Histogram.from_edges(edges) if edges is not None else Histogram(0.0, 1.0)
        return cls(column, group, Moments().update(values),
                   TDigest().update(values), hist.update(values))

    def merge(self, other: "ColumnProfile") -> "ColumnProfile":
        self.moments.merge(other.moments)
        self.tdigest.merge(other.tdigest)
        self.hist.merge(other.hist)
        return self

    def to_row(self) -> dict:
        d = self.moments.to_dict()
        return {
            "column": self.column,
            "group": self.group,
            "count": d["count"],
            "mean": d["mean"],
            "std": d["std"],
            "min": d["min"],
            "max": d["max"],
            "median": self.tdigest.quantile(0.5),
            "p25": self.tdigest.quantile(0.25),
            "p75": self.tdigest.quantile(0.75),
        }


# ---------------------------------------------------------------------------
# HyperLogLog — distinct counts without a seen-set
# ---------------------------------------------------------------------------


class HLL:
    """HyperLogLog (p-bit registers) — replaces the reference's unbounded
    ``seen_headlines`` set (``news.py:365,560-573``) for cardinality.
    """

    __slots__ = ("p", "m", "registers")

    def __init__(self, p: int = 14) -> None:
        self.p = int(p)
        self.m = 1 << self.p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def update(self, values: np.ndarray) -> "HLL":
        h = hash64(values)
        if h.size == 0:
            return self
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rem = h & np.uint64((1 << (64 - self.p)) - 1)
        nbits = 64 - self.p
        # rank = leading-zero count of the remaining bits + 1
        bl = np.zeros(h.size, dtype=np.int64)
        nz = rem > 0
        bl[nz] = np.floor(np.log2(rem[nz].astype(np.float64))).astype(np.int64) + 1
        rank = (nbits - bl + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)
        return self

    def merge(self, other: "HLL") -> "HLL":
        assert self.p == other.p
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = self.m
        alpha = 0.7213 / (1.0 + 1.079 / m)
        inv = np.power(2.0, -self.registers.astype(np.float64))
        e = alpha * m * m / inv.sum()
        if e <= 2.5 * m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                e = m * math.log(m / zeros)
        return float(e)


# ---------------------------------------------------------------------------
# serialization helpers — sketches travel as binary cells in Arrow tables
# ---------------------------------------------------------------------------


def dumps(sketch) -> bytes:
    digest = sketch.tdigest if isinstance(sketch, ColumnProfile) else sketch
    if isinstance(digest, TDigest):
        digest._flush()
    return pickle.dumps(sketch, protocol=pickle.HIGHEST_PROTOCOL)


def loads(raw: bytes):
    return pickle.loads(raw)


def merge_all(sketches: Iterable):
    """Fold an iterable of same-type sketches into one (order-insensitive)."""
    it = iter(sketches)
    first = next(it)
    for s in it:
        first.merge(s)
    return first
