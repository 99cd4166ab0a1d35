"""Distribution-drift kernels: unusual-ratio, KS, PSI, Jensen-Shannon.

Semantics sources (see SURVEY.md §2.5, §3.1):

* ``unusual_ratio_verdicts`` replicates the reference's executable drift
  detector row-for-row: ``/root/reference/src/data_sources/iot/sensor.py:160-194``
  — count-based window of ``window_size`` rows, trigger when
  ``unusual_count / window_size > threshold`` (NOTE: divisor is the constant
  window_size, ``sensor.py:189``), window resets ONLY when drift fires
  (``sensor.py:193``) and otherwise keeps growing and re-evaluates on every
  subsequent row.
* ``ks_2sample`` reimplements the two-sample Kolmogorov-Smirnov test of
  ``/root/reference/DESIGN.md:556-573`` (drift iff p < 0.05) without scipy:
  exact statistic from sorted samples, p via the asymptotic
  Kolmogorov distribution (same formula scipy uses in asymp mode).
* ``psi`` / ``js_divergence`` are histogram-based kernels over the same
  fixed-bin partials as the profile stage (``DESIGN.md:521-523`` names
  KL/JS; PSI is mandated by BASELINE.json north_star).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sketches import Histogram, TDigest


# ---------------------------------------------------------------------------
# Reference detector (sensor.py) — exact conformance semantics
# ---------------------------------------------------------------------------


@dataclass
class WindowVerdict:
    window_index: int        # 0-based index of the evaluated window
    start_row: int           # first row (0-based, inclusive) in the window
    end_row: int             # last row (0-based, inclusive) that triggered evaluation
    n_rows: int              # rows accumulated when drift fired
    unusual_count: int
    unusual_ratio: float     # unusual_count / window_size (constant divisor!)
    drift: bool


class UnusualRatioReplay:
    """CHUNKED replay of the reference trigger (sensor.py:160-194) with
    carried state — feed boolean chunks in stream order via ``feed``,
    collect verdicts with ``finish``; identical output to replaying the
    concatenated array in one call.

    The carried state is tiny — (rows seen, open-window start, running
    unusual count, window index) — because the reference resets FULLY on
    drift and never shrinks the window, so no per-row buffer is needed.
    Each chunk is processed per DRIFT EVENT, not per row: within an open
    window the running count ``carried + cumsum(u) - off`` is
    nondecreasing, so the first trip index is one ``searchsorted`` over
    the chunk cumsum (then clamped to the first evaluable index
    ``start + window_size - 1``).  O(drifts × log chunk) instead of a
    per-row Python loop — this is what lets ``detect_stream`` replay the
    merged flag column through the driver with O(1) state (the merge, not
    this replay, sets the detector's memory bound)."""

    def __init__(self, window_size: int = 50, threshold: float = 0.10):
        self.w = int(window_size)
        self.t = float(threshold)
        self.pos = 0     # absolute index of the next unseen row
        self.start = 0   # absolute index where the open window began
        self.count = 0   # unusuals accumulated in the open window so far
        self.widx = 0
        self.verdicts: list[WindowVerdict] = []
        # smallest integer count whose FLOAT ratio count/w exceeds t —
        # matches the reference's float compare exactly at the boundary
        k = int(np.floor(self.t * self.w)) + 1
        while k / self.w <= self.t:
            k += 1
        while k > 0 and (k - 1) / self.w > self.t:
            k -= 1
        self._kmin = k

    def feed(self, chunk: np.ndarray) -> None:
        u = np.asarray(chunk).astype(bool)
        n = u.size
        if n == 0:
            return
        cum = np.cumsum(u, dtype=np.int64)   # unusuals in chunk[0..i]
        carried = self.count                 # window opened at/before pos
        off = 0                              # cum baseline of window start
        while True:
            i0 = max(self.start + self.w - 1, self.pos)   # first evaluable
            if i0 >= self.pos + n:
                break
            j = int(np.searchsorted(cum, self._kmin - carried + off, "left"))
            trip = max(self.pos + j, i0)
            if trip >= self.pos + n:
                break
            c_at = int(carried + cum[trip - self.pos] - off)
            self.verdicts.append(WindowVerdict(
                self.widx, self.start, trip, trip - self.start + 1,
                c_at, c_at / self.w, True))
            self.widx += 1
            self.start = trip + 1
            carried = 0
            off = int(cum[trip - self.pos])
        self.count = int(carried + cum[n - 1] - off)
        self.pos += n

    def finish(self) -> list[WindowVerdict]:
        if self.start < self.pos:
            n = int(self.pos - self.start)
            c = int(self.count)
            self.verdicts.append(WindowVerdict(
                self.widx, self.start, self.pos - 1, n, c, c / self.w, False))
            self.start = self.pos  # idempotent finish
        return self.verdicts


def unusual_ratio_verdicts(
    unusual: np.ndarray,
    window_size: int = 50,
    threshold: float = 0.10,
) -> list[WindowVerdict]:
    """Replay of ``run_streaming_pipeline`` (sensor.py:160-194) over a boolean
    array, in order.  Emits one verdict per DRIFT event (the reference only
    acts/rests when the ratio trips; sub-threshold evaluations are silent
    re-checks) plus a final verdict for the trailing open window.

    One-shot wrapper over ``UnusualRatioReplay`` (the single source of the
    trigger semantics); ``detect_stream`` uses the chunked form directly so
    the flag column streams through the driver instead of materializing.
    """
    replay = UnusualRatioReplay(window_size=window_size, threshold=threshold)
    replay.feed(np.asarray(unusual))
    return replay.finish()


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------


def _kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov distribution (asymptotic KS p)."""
    if x <= 0:
        return 1.0
    # alternating series; converges fast for x > 0.2
    total = 0.0
    for k in range(1, 101):
        term = (-1) ** (k - 1) * math.exp(-2.0 * (k * x) ** 2)
        total += term
        if abs(term) < 1e-12:
            break
    return max(0.0, min(1.0, 2.0 * total))


def ks_2sample(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Exact two-sample KS statistic + asymptotic p-value (scipy-compatible).

    Mirrors ``ks_2samp(reference[col], current[col])`` at DESIGN.md:559-563.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    n1, n2 = a.size, b.size
    if n1 == 0 or n2 == 0:
        return float("nan"), float("nan")
    both = np.concatenate([a, b])
    cdf1 = np.searchsorted(a, both, side="right") / n1
    cdf2 = np.searchsorted(b, both, side="right") / n2
    d = float(np.abs(cdf1 - cdf2).max())
    return d, ks_pvalue(d, n1, n2)


def ks_pvalue(d: float, n1, n2) -> float:
    """Asymptotic p-value of KS statistic ``d`` between samples of ``n1``
    and ``n2`` values (the Kolmogorov distribution with scipy's
    small-sample correction)."""
    en = (n1 * n2 / (n1 + n2)) ** 0.5
    return _kolmogorov_sf((en + 0.12 + 0.11 / en) * d)


def ks_from_digests(ref: TDigest, cur: TDigest, n_points: int = 256) -> float:
    """Approximate KS statistic from two t-digests (scale path: no raw rows).

    Evaluates |ECDF_ref - ECDF_cur| on a merged grid of quantile probes.
    """
    lo = min(ref.quantile(0.0), cur.quantile(0.0))
    hi = max(ref.quantile(1.0), cur.quantile(1.0))
    if not (hi > lo):
        return 0.0
    grid = np.linspace(lo, hi, n_points)
    return float(np.abs(ref.cdf(grid) - cur.cdf(grid)).max())


# ---------------------------------------------------------------------------
# PSI / JS over mergeable fixed-bin histograms
# ---------------------------------------------------------------------------


def _probs(counts: np.ndarray, eps: float) -> np.ndarray:
    """Cell counts as probabilities, each floored at ``eps``, renormalized."""
    p = np.clip(counts / max(counts.sum(), 1), eps, None)
    return p / p.sum()


def _cells(h: Histogram, max_bins: int) -> np.ndarray:
    """``h`` coarsened to <= ``max_bins`` bins, with its under- and
    overflow as two extra cells."""
    h = h.coarsen(max_bins)
    return np.concatenate(([h.under], h.counts, [h.over])).astype(np.float64)


def psi(ref: Histogram, cur: Histogram, eps: float = 1e-6, max_bins: int = 8) -> float:
    """Population Stability Index; common rule-of-thumb: >0.2 ⇒ drifted.

    Histograms are coarsened to <= max_bins first — fine-binned PSI on
    small samples inflates purely from sampling noise."""
    return psi_from_counts(_cells(ref, max_bins), _cells(cur, max_bins), eps)


def psi_from_counts(ref_counts: np.ndarray, cur_counts: np.ndarray, eps: float = 1e-6) -> float:
    p, q = _probs(ref_counts, eps), _probs(cur_counts, eps)
    return float(np.sum((q - p) * np.log(q / p)))


def js_divergence(ref: Histogram, cur: Histogram, eps: float = 1e-6, max_bins: int = 8) -> float:
    """Jensen-Shannon divergence (base e, in [0, ln 2])."""
    return _js_from_counts(_cells(ref, max_bins), _cells(cur, max_bins), eps)


def _js_from_counts(ref_counts: np.ndarray, cur_counts: np.ndarray, eps: float) -> float:
    p, q = _probs(ref_counts, eps), _probs(cur_counts, eps)
    m = 0.5 * (p + q)
    return float(0.5 * np.sum(p * np.log(p / m)) + 0.5 * np.sum(q * np.log(q / m)))


def mean_difference(ref_mean: float, ref_std: float, cur_mean: float) -> float:
    """|Δmean| in units of reference std (DESIGN.md:571-573).

    Matches the reference DriftDetector: when the reference std is not > 0
    (constant or degenerate baseline) the metric is defined as 0 — never
    inf, which would also poison lineage.json with non-strict JSON."""
    if not ref_std or math.isnan(ref_std):
        return 0.0
    return abs(cur_mean - ref_mean) / ref_std


def windowed_drift_series(ds, ts_col: str, value_col: str,
                          edges: np.ndarray, unit: str = "day",
                          eps: float = 1e-6):
    """Consecutive-window drift series: PSI and JS divergence between
    each time window (``unit`` truncation of ``ts_col``) and the one
    before it — the "is today's data shaped like yesterday's" monitor.

    Scale shape: ONE ``map_batches`` pass emits per-(window, bin) partial
    counts over pre-fixed ``edges``; the driver fetches the per-block
    partials (windows × bins rows per block — KB), sums them and scores
    the consecutive pairs from counts alone, with no groupby exchange.
    Raw values never concentrate anywhere; fixed shared edges make the
    partials order-insensitively mergeable (the same property the
    baseline store relies on).

    Null/NaN values do not silently pollute the top bin: they count into
    a dedicated ``n_nan`` column per window (bin id ``len(edges)+1``) —
    a feed suddenly going null is itself a signal, not noise in the
    distribution (same convention as the ``Histogram`` sketch's nan
    counter).

    Returns a pandas DataFrame (window, n, n_nan, psi, js) — psi/js are
    NaN for the first window; ``n`` counts scored (non-null) values.
    """
    import pandas as pd
    import pyarrow as pa

    # Validate at the API boundary: only fixed-frequency truncations are
    # floor-able; anything else (week/month/...) would raise deep inside a
    # map_batches task (ADVICE r3).
    _UNIT_ALIAS = {"day": "D", "d": "D", "hour": "h", "h": "h",
                   "minute": "min", "min": "min", "second": "s", "s": "s"}
    try:
        floor_alias = _UNIT_ALIAS[unit.lower()]
    except KeyError:
        raise ValueError(
            f"windowed_drift_series: unsupported unit {unit!r}; expected one "
            f"of {sorted(set(_UNIT_ALIAS))} (non-fixed frequencies like "
            "week/month are not floor-able)") from None

    nb = len(edges) + 1
    nan_bin = nb  # one past the overflow bin

    def partial(t: pa.Table) -> pa.Table:
        ts = t[ts_col].to_pandas()
        w = ts.dt.floor(floor_alias)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        b = np.searchsorted(edges, v, side="right")
        b[np.isnan(v)] = nan_bin
        df = pd.DataFrame({"w": w, "b": b})
        g = df.groupby(["w", "b"], sort=False).size().rename("n").reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    import ray

    refs = (ds.select_columns([ts_col, value_col])
            .map_batches(partial, batch_format="pyarrow").to_arrow_refs())
    parts = [t for t in ray.get(refs) if t.num_rows]
    counts = (pa.concat_tables(parts).to_pandas() if parts
              else pd.DataFrame({"w": [], "b": [], "n": []}))

    windows = sorted(counts["w"].unique())
    mat, nans = {}, {}
    for w in windows:
        sub = counts[counts["w"] == w]
        vec = np.zeros(nb + 1, dtype=np.int64)
        np.add.at(vec, sub["b"].to_numpy(), sub["n"].to_numpy())
        mat[w] = vec[:nb]
        nans[w] = int(vec[nan_bin])

    rows = []
    prev = None
    for w in windows:
        cur = mat[w]
        if prev is None:
            rows.append({"window": w, "n": int(cur.sum()),
                         "n_nan": nans[w],
                         "psi": float("nan"), "js": float("nan")})
        else:
            rows.append({"window": w, "n": int(cur.sum()),
                         "n_nan": nans[w],
                         "psi": psi_from_counts(prev, cur, eps),
                         "js": _js_from_counts(prev, cur, eps)})
        prev = cur
    return pd.DataFrame(rows)


def ks_from_hist(ref: "Histogram", cur: "Histogram") -> float:
    """QUANTIZED-EXACT KS statistic between two SAME-EDGE histograms:
    max |CDF_ref − CDF_cur| evaluated at the shared bin edges.

    This removes the tolerance band of :func:`ks_from_digests` at the
    100 TB scale path: for the bin-quantized distributions the statistic
    is EXACT (a deterministic function of the mergeable integer counts),
    and it lower-bounds the raw-value KS with error at most the larger
    bin mass.  Same partial-aggregation shape as PSI/JS/W1 — histograms
    travel as per-batch partials, the driver sees counts only."""
    if not np.allclose(ref.edges, cur.edges):
        raise ValueError("ks_from_hist needs identical bin edges")
    p = ref.counts / max(ref.counts.sum(), 1)
    q = cur.counts / max(cur.counts.sum(), 1)
    return float(np.abs(np.cumsum(p) - np.cumsum(q)).max())


def wasserstein_from_hist(ref: "Histogram", cur: "Histogram") -> float:
    """Wasserstein-1 (earth-mover) distance between two SAME-EDGE
    histograms, in the value column's own units — the drift metric that
    says HOW FAR the distribution moved, where PSI/JS only say how much
    mass disagrees.  W1 = ∫|CDF_ref - CDF_cur| dx, computed exactly from
    the shared bin edges (mass inside a bin contributes at bin
    granularity — the sketch's resolution, same tolerance class as the
    PSI/JS pair).  Mergeable-partial friendly: histograms already travel
    as per-batch partials."""
    if not np.allclose(ref.edges, cur.edges):
        raise ValueError("wasserstein_from_hist needs identical bin edges")
    p = ref.counts / max(ref.counts.sum(), 1)
    q = cur.counts / max(cur.counts.sum(), 1)
    widths = np.diff(ref.edges)
    cdf_gap = np.abs(np.cumsum(p) - np.cumsum(q))
    return float(np.sum(cdf_gap * widths))


def ks_exact_distributed(ds, value_col: str, a_col: str, b_col: str):
    """FULLY-exact two-sample KS statistic over a Dataset — no binning
    (q146's quantization) and no t-digest tolerance band: the statistic
    is evaluated at every distinct value, exactly as :func:`ks_2sample`
    does on raw arrays, but distributed.

    ``ds`` carries the numeric ``value_col`` plus two 0/1 integer tag
    columns (``a_col`` = row belongs to sample A, ``b_col`` = sample B;
    a row may belong to neither).  NaN values are dropped, matching the
    SQL ``value IS NOT NULL`` convention.

    Scale shape (the reason this isn't just ``sort + searchsorted``):

    1. per-batch combiner — ``np.unique`` + ``bincount`` folds each
       batch to (value, ca, cb) partial counts before any exchange;
    2. ONE hash exchange: ``groupby(value).sum`` → the distinct-value
       table (≤ corpus rows, usually far less);
    3. ONE range exchange: ``sort(value)`` → disjoint ordered blocks,
       pinned so the two scan passes below don't re-execute it;
    4. zone pass — one (vmin, Σca, Σcb) row PER BLOCK to the driver
       (∝ block count, never ∝ rows) → exclusive block offsets,
       broadcast once via ``ray.put``;
    5. gap pass — each block computes its local cumsums + offset and
       returns ONE row: max |cumA·n_b − cumB·n_a| (an exact int64).

    Returns ``{"n_a", "n_b", "d_num", "d"}`` with
    ``d = d_num / (n_a·n_b)`` — the numerator is an exact integer, so
    the statistic hash-checks bit-for-bit against a SQL window oracle
    (DuckDB promotes the windowed sums to HUGEINT; we guard the int64
    range loudly instead)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Sum

    def partial(t: "pa.Table") -> "pa.Table":
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        a = t[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = ~np.isnan(v)
        v, a, b = v[ok], a[ok], b[ok]
        uv, inv = np.unique(v, return_inverse=True)
        # bincount-with-weights returns float64; counts are far below
        # 2**53 per batch so the round-trip is exact
        ca = np.bincount(inv, weights=a, minlength=uv.size).astype(np.int64)
        cb = np.bincount(inv, weights=b, minlength=uv.size).astype(np.int64)
        keep = (ca > 0) | (cb > 0)
        return pa.table({"v": pa.array(uv[keep]),
                         "ca": pa.array(ca[keep]),
                         "cb": pa.array(cb[keep])})

    g = (ds.map_batches(partial, batch_format="pyarrow")
         .groupby("v").aggregate(Sum("ca"), Sum("cb"))
         .map_batches(lambda t: t.rename_columns(["v", "ca", "cb"]),
                      batch_format="pyarrow")
         .sort("v")
         .materialize())   # pin: two scan passes follow (distinct-value
                           # table only — object store, not driver)

    def zone(t: "pa.Table") -> "pa.Table":
        if t.num_rows == 0:
            return pa.table({"vmin": pa.array([], pa.float64()),
                             "sa": pa.array([], pa.int64()),
                             "sb": pa.array([], pa.int64())})
        return pa.table({
            "vmin": pa.array([t["v"][0].as_py()], pa.float64()),
            "sa": pa.array([pc.sum(t["ca"]).as_py()], pa.int64()),
            "sb": pa.array([pc.sum(t["cb"]).as_py()], pa.int64())})

    # batch_size=None ⇒ one batch per block; rows returned ∝ #blocks
    zones = g.map_batches(zone, batch_size=None,
                          batch_format="pyarrow").take_all()
    zones.sort(key=lambda r: r["vmin"])
    n_a = int(sum(r["sa"] for r in zones))
    n_b = int(sum(r["sb"] for r in zones))
    if n_a == 0 or n_b == 0:
        return {"n_a": n_a, "n_b": n_b, "d_num": 0, "d": float("nan")}
    if n_a * n_b >= 2 ** 62:
        raise OverflowError(
            f"ks_exact_distributed gap numerator n_a*n_b = {n_a}*{n_b} "
            "exceeds the exact-int64 range; sample one side or use "
            "ks_from_hist (quantized-exact) at this scale")
    offs, ca_off, cb_off = {}, 0, 0
    for r in zones:
        offs[r["vmin"]] = (ca_off, cb_off)
        ca_off += int(r["sa"])
        cb_off += int(r["sb"])
    offs_ref = ray.put(offs)

    def gap(t: "pa.Table") -> "pa.Table":
        if t.num_rows == 0:
            return pa.table({"g": pa.array([], pa.int64())})
        oa, ob = ray.get(offs_ref)[t["v"][0].as_py()]
        ca = oa + np.cumsum(t["ca"].to_numpy())
        cb = ob + np.cumsum(t["cb"].to_numpy())
        m = int(np.abs(ca * n_b - cb * n_a).max())
        return pa.table({"g": pa.array([m], pa.int64())})

    d_num = max(int(r["g"]) for r in
                g.map_batches(gap, batch_size=None,
                              batch_format="pyarrow").take_all())
    return {"n_a": n_a, "n_b": n_b, "d_num": d_num,
            "d": d_num / (n_a * n_b)}
