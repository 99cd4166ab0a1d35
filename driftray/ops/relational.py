"""Relational operators, Ray-Data-first.

These are the engine's building blocks for the reference's relational
surface (SURVEY.md §2: windowed groupby-aggregate A1, enrichment join J1,
dedup D1-D3, sort/limit O1-O4) re-expressed over ``ray.data.Dataset``:

* joins against SMALL sides are broadcast (``ray.put`` once, pandas merge
  per batch inside ``map_batches``) — never a shuffle;
* dedup/distinct shuffle ONLY the key columns;
* top-k never performs a global sort: per-batch local top-k, tiny final
  merge on the driver.

All operators keep the stream lazy; nothing materializes the full input.
"""

from __future__ import annotations

from typing import Literal

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from .pool import actor_pool


def adaptive_join_partitions(requested: int | None = None,
                             cap: int = 32) -> int:
    """Partition count for ``Dataset.join``'s hash-shuffle aggregators.

    The join operator holds ``num_partitions`` aggregating actors
    concurrently; asking for more partitions than the cluster has CPUs
    stalls the whole query on actor scheduling (measured: a 32-partition
    join that finishes in seconds at 32 CPUs never completes at 4).
    Default: one per cluster CPU, capped (at real cluster scale callers
    pass an explicit count sized to the data, not the default)."""
    if requested is not None:
        return requested
    cpus = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    return max(2, min(cap, cpus))


class BroadcastJoiner:
    """Actor-pool/batch callable joining each batch against a broadcast
    dimension table (J1 enrichment / J3 lookup; ``DESIGN.md:246``,
    ``news.py:92-99``).  The dim table is put in the object store ONCE;
    each actor/task fetches it once in ``__init__``, not per batch."""

    def __init__(self, dim_ref, on: list[str], how: str, suffix: str = "_dim"):
        dim = ray.get(dim_ref) if isinstance(dim_ref, ray.ObjectRef) else dim_ref
        self.dim = dim.to_pandas() if isinstance(dim, pa.Table) else dim
        self.on = on
        self.how = how
        self.suffix = suffix

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if self.how in ("semi", "anti"):
            key = pd.MultiIndex.from_frame(batch[self.on].astype(object))
            dimkey = pd.MultiIndex.from_frame(self.dim[self.on].astype(object))
            mask = key.isin(dimkey)
            return batch[mask] if self.how == "semi" else batch[~mask]
        out = batch.merge(self.dim, on=self.on, how=self.how,
                          suffixes=("", self.suffix))
        return out


def broadcast_join(ds: rd.Dataset, dim: pa.Table | pd.DataFrame, on: list[str],
                   how: Literal["inner", "left", "semi", "anti"] = "inner",
                   batch_size: int = 8192) -> rd.Dataset:
    """Join a big Dataset against a small dimension table without a shuffle."""
    dim_ref = ray.put(dim)
    return ds.map_batches(BroadcastJoiner, fn_constructor_args=(dim_ref, on, how),
                          batch_format="pandas", batch_size=batch_size,
                          concurrency=actor_pool())


def distinct(ds: rd.Dataset, cols: list[str],
             num_partitions: int = 32) -> rd.Dataset:
    """DISTINCT over ``cols``: shuffle only those columns (pruned
    projection + per-batch local dedup BEFORE the exchange to cut
    volume), then one arrow ``group_by`` per hash PARTITION.

    The exchange is the PART_COL hash-partition shape
    (``grouped.partitioned_group_apply``), not a sort-based
    ``groupby(cols).count()`` over the raw key tuple: the sort exchange
    range-samples and sorts the full key columns, measured 8x slower
    (5.3 s vs 0.6 s on 600 k int64 pairs, 32 CPUs).  Per-partition dedup
    stays arrow-native — no pandas round trip, so nullable int keys
    can't degrade to float64 (the CC id-corruption lesson)."""
    from .grouped import partitioned_group_apply

    pruned = ds.select_columns(cols).map_batches(
        lambda t: t.group_by(cols).aggregate([]), batch_format="pyarrow")
    return partitioned_group_apply(
        pruned, cols, lambda t: t.group_by(cols).aggregate([]),
        num_partitions=num_partitions, batch_format="pyarrow")


def dedup_exact(ds: rd.Dataset, key_cols: list[str], order_col: str,
                batch_size: int = 8192,
                cache_projection: bool = True) -> rd.Dataset:
    """Exact dedup, FIRST-wins by ``order_col`` (pinned D2/D3 semantics,
    ``news.py:74-82``), two-tier like ``pipeline.uniqueness_violations``:

    1. shuffle 8-byte key HASHES only (``groupby(kh).count()``) — never the
       raw key values (a wide text key would otherwise ship the whole
       distinct corpus to the driver);
    2. rows of DUPLICATED hashes (real dups + ~n²/2⁶⁴ collisions — a set
       ∝ duplicate density, not corpus size) are fetched exactly and the
       first-by-order winner per full key is resolved driver-side;
    3. one streaming filter keeps rows whose hash is unduplicated, plus
       the winner copy of each duplicated key.

    Rows tying on (key, min order) are all kept (order should be unique
    per key; q14-style callers use a unique id).

    ``cache_projection`` materializes the pruned (keys, order) projection
    ONCE WITH the 8-byte key hash already attached and reuses it for both
    the duplicate-hash sort and the candidate fetch — one storage scan +
    ONE hash pass total (the dup sort then reads only the kh column
    zero-copy from the materialized Arrow blocks, and the candidate fetch
    never re-hashes the wide key).  The blocks stay node-local in the
    object store (spillable); disable it when the key columns are so wide
    that re-reading compressed Parquet beats holding them (e.g.
    full-document text keys at extreme scale)."""
    from ..checks import hash_keys, join_key

    proj_cols = list(dict.fromkeys(key_cols + [order_col]))
    kh_col = "__kh__"
    while kh_col in proj_cols:
        kh_col += "_"

    def attach_kh(t: pa.Table) -> pa.Table:
        return t.append_column(
            kh_col, pa.array(hash_keys(t, key_cols).astype(np.int64)))

    proj = ds.select_columns(proj_cols).map_batches(
        attach_kh, batch_format="pyarrow")
    if cache_projection:
        proj = proj.materialize()

    # sort + adjacent-equal scan (superset incl. batch boundaries) — the
    # winner resolution below verifies each candidate key exactly
    dup_h = duplicate_values_sorted(proj.select_columns([kh_col]), kh_col)
    if len(dup_h) == 0:
        return ds  # no duplicate hashes anywhere → input already distinct

    dup_ref = ray.put(np.sort(dup_h.astype(np.int64)))

    class FetchCandidates:
        def __init__(self):
            self.dup = ray.get(dup_ref)  # sorted int64 array

        def __call__(self, t: pa.Table) -> pa.Table:
            kh = t[kh_col].to_numpy()    # precomputed by attach_kh
            mask = pa.array(np.isin(kh, self.dup))
            sub = t.filter(mask)
            return pa.table({"key": pa.array(join_key(sub, key_cols)),
                             "ord": sub[order_col]})

    cand = (proj.map_batches(FetchCandidates, batch_format="pyarrow",
                             concurrency=actor_pool()).to_pandas())
    winners = cand.groupby("key")["ord"].min().to_dict()
    win_ref = ray.put(winners)

    class KeepWinners:
        """pyarrow batches throughout — a pandas roundtrip would promote an
        int64 key column with any null to float64, silently changing every
        hash in the batch and keeping its duplicates."""

        def __init__(self):
            self.dup = ray.get(dup_ref)
            self.win = ray.get(win_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            kh = hash_keys(t, key_cols).astype(np.int64)
            in_dup = np.isin(kh, self.dup)
            keep = ~in_dup
            if in_dup.any():
                sub = t.filter(pa.array(in_dup))
                keys = join_key(sub, key_cols)
                ords = sub[order_col].to_pylist()
                wins = np.fromiter(
                    (self.win.get(k) == o for k, o in zip(keys, ords)),
                    dtype=bool, count=sub.num_rows)
                keep[np.flatnonzero(in_dup)] = wins
            return t.filter(pa.array(keep))

    return ds.map_batches(KeepWinners, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=actor_pool())


def duplicate_values_sorted(ds: rd.Dataset | np.ndarray, col: str | None = None,
                            sort_partitions: int = 64) -> np.ndarray:
    """EXACT duplicate detection over a mostly-unique key column.

    A numpy array (e.g. 8-byte key hashes already collected on the driver)
    is sorted in memory and scanned for adjacent-equal values; ``col`` and
    ``sort_partitions`` are ignored.

    A Dataset gets a distributed range ``sort(col)`` + vectorized
    adjacent-equal scan per batch.  A duplicate run spanning a batch
    boundary appears as one batch's LAST value and the next batch's FIRST
    value, so each batch also emits its boundary values; the driver keeps a
    boundary value only when it occurs ≥2 times across the combined
    boundary multiset (a single-row batch emits its one value once, not
    twice).  The result is
    exactly the set of duplicated values, so an all-unique table returns
    empty and callers keep their early-out.

    This replaces ``groupby(col).count()`` for duplicate detection: Ray's
    aggregate pays per-GROUP overhead, which melts when nearly every key
    is unique (measured 61 s for 640 k distinct keys in one partition vs
    0.8 s for this sort+scan).

    ``sort_partitions`` bounds the sort's input (and hence output)
    partition count: a sort fed by thousands of blocks produces
    n_blocks² shuffle pieces, each small enough (<100 KB) to land in the
    DRIVER's in-process object store — measured 4 GB of driver RSS on a
    320 M-row sort before this bound.  Size it ~4× cluster cores on a
    real cluster."""
    if isinstance(ds, np.ndarray):
        v = np.sort(ds)
        return np.unique(v[1:][v[1:] == v[:-1]])

    def scan(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False)
        typ = t.schema.field(col).type
        if len(v) == 0:
            return pa.table({col: pa.array([], typ),
                             "d": pa.array([], pa.int8())})
        dup = np.unique(v[1:][v[1:] == v[:-1]])
        bound = (np.array([v[0], v[-1]], dtype=v.dtype) if len(v) > 1
                 else np.array([v[0]], dtype=v.dtype))
        return pa.table({
            col: pa.array(np.concatenate([dup, bound]), typ),
            "d": pa.array(np.concatenate([np.ones(len(dup), dtype=np.int8),
                                          np.zeros(len(bound), dtype=np.int8)])),
        })

    out = (ds.select_columns([col]).repartition(sort_partitions).sort(col)
           .map_batches(scan, batch_format="pyarrow").to_pandas())
    dups = out.loc[out["d"] == 1, col].to_numpy()
    bnd = out.loc[out["d"] == 0, col].to_numpy()
    uniq, counts = np.unique(bnd, return_counts=True)
    return np.unique(np.concatenate([dups, uniq[counts >= 2]]))


def _setop(left: rd.Dataset, right: rd.Dataset, cols: list[str],
           keep: str) -> rd.Dataset:
    """Shared INTERSECT/EXCEPT core: tag each side, local per-batch dedup
    (cuts exchange volume), union, ONE ``groupby(cols)`` aggregation of the
    side markers, then filter on presence — a single robust Aggregate
    shuffle instead of a multi-way join, nothing collected or broadcast."""
    from ray.data.aggregate import Sum

    def tag(side: str):
        def fn(t: pa.Table) -> pa.Table:
            t = t.group_by(cols).aggregate([])  # local distinct
            n = t.num_rows
            lv = np.full(n, 1 if side == "l" else 0, dtype=np.int64)
            rv = np.full(n, 1 if side == "r" else 0, dtype=np.int64)
            return t.append_column("__l", pa.array(lv)).append_column(
                "__r", pa.array(rv))

        return fn

    l = left.select_columns(cols).map_batches(tag("l"), batch_format="pyarrow")
    r = right.select_columns(cols).map_batches(tag("r"), batch_format="pyarrow")
    agg = (l.union(r).groupby(cols)
           .aggregate(Sum("__l", alias_name="__nl"),
                      Sum("__r", alias_name="__nr")))

    def flt(t: pa.Table) -> pa.Table:
        nl = pc.fill_null(t["__nl"], 0)
        nr = pc.fill_null(t["__nr"], 0)
        if keep == "both":
            mask = pc.and_(pc.greater(nl, 0), pc.greater(nr, 0))
        else:  # left-only
            mask = pc.and_(pc.greater(nl, 0), pc.equal(nr, 0))
        return t.filter(mask).select(cols)

    return agg.map_batches(flt, batch_format="pyarrow")


def intersect(left: rd.Dataset, right: rd.Dataset, cols: list[str]) -> rd.Dataset:
    """Set INTERSECT (SQL semantics, distinct rows) over ``cols`` (D5)."""
    return _setop(left, right, cols, keep="both")


def except_(left: rd.Dataset, right: rd.Dataset, cols: list[str]) -> rd.Dataset:
    """Set EXCEPT (SQL semantics, distinct rows): left \\ right (D5)."""
    return _setop(left, right, cols, keep="left-only")


def _bag_setop(left: rd.Dataset, right: rd.Dataset, cols: list[str],
               mode: Literal["intersect", "except"]) -> rd.Dataset:
    """Shared INTERSECT ALL / EXCEPT ALL core (BAG semantics — multiplicity
    preserved, SQL ``INTERSECT ALL`` / ``EXCEPT ALL``).

    Same single-shuffle shape as :func:`_setop`, but each side contributes
    its per-key COUNT instead of a 0/1 marker (local per-batch counting is
    the partial-aggregation step, so the exchange carries one row per
    distinct key per block, not per input row).  The output multiplicity is
    ``min(nl, nr)`` (intersect) or ``max(nl - nr, 0)`` (except), and rows
    are re-expanded VECTORIZED (``np.repeat`` over take indices) inside the
    same map_batches — never on the driver."""
    from ray.data.aggregate import Sum

    def count_side(side: str):
        def fn(t: pa.Table) -> pa.Table:
            t = t.group_by(cols).aggregate([([], "count_all")])
            n = t.column("count_all")
            zero = pa.nulls(t.num_rows, pa.int64())
            zero = pc.fill_null(zero, 0)
            if side == "l":
                t = t.append_column("__l", pc.cast(n, pa.int64()))
                t = t.append_column("__r", zero)
            else:
                t = t.append_column("__l", zero)
                t = t.append_column("__r", pc.cast(n, pa.int64()))
            return t.drop_columns(["count_all"])

        return fn

    l = left.select_columns(cols).map_batches(count_side("l"),
                                              batch_format="pyarrow")
    r = right.select_columns(cols).map_batches(count_side("r"),
                                               batch_format="pyarrow")
    agg = (l.union(r).groupby(cols)
           .aggregate(Sum("__l", alias_name="__nl"),
                      Sum("__r", alias_name="__nr")))

    def expand(t: pa.Table) -> pa.Table:
        nl = pc.fill_null(t["__nl"], 0).to_numpy(zero_copy_only=False)
        nr = pc.fill_null(t["__nr"], 0).to_numpy(zero_copy_only=False)
        if mode == "intersect":
            mult = np.minimum(nl, nr)
        else:
            mult = np.maximum(nl - nr, 0)
        mult = np.maximum(mult, 0)
        idx = np.repeat(np.arange(len(mult), dtype=np.int64), mult)
        return t.select(cols).take(pa.array(idx))

    return agg.map_batches(expand, batch_format="pyarrow")


def intersect_all(left: rd.Dataset, right: rd.Dataset,
                  cols: list[str]) -> rd.Dataset:
    """Bag INTERSECT ALL: each row kept min(count_left, count_right)
    times (D5 bag variant)."""
    return _bag_setop(left, right, cols, mode="intersect")


def except_all(left: rd.Dataset, right: rd.Dataset,
               cols: list[str]) -> rd.Dataset:
    """Bag EXCEPT ALL: each row kept max(count_left - count_right, 0)
    times (D5 bag variant)."""
    return _bag_setop(left, right, cols, mode="except")


def _sum_out_type(ds: rd.Dataset, value_col: str) -> pa.DataType:
    """Arrow output type of ray.data's Sum over ``value_col`` — int64 for
    integer inputs, float64 otherwise — so driver-built grand-total rows
    union cleanly with worker-side aggregate blocks."""
    sch = ds.schema()
    typ = sch.types[list(sch.names).index(value_col)]
    if isinstance(typ, pa.DataType):
        return pa.int64() if pa.types.is_integer(typ) else pa.float64()
    return pa.int64() if np.issubdtype(typ, np.integer) else pa.float64()


def rollup_aggregate(ds: rd.Dataset, keys: list[str], value_col: str,
                     out_col: str, total_label: str = "ALL") -> rd.Dataset:
    """SQL ``GROUP BY ROLLUP(keys...)`` (sum): one row per prefix level of
    ``keys``, coarser levels labelled ``total_label`` (string keys only —
    the label substitutes for SQL's NULL grouping marker so the output is
    hash-stable and join-friendly).

    Scale shape: ONE full-data shuffle at the finest level; every coarser
    level re-aggregates the PREVIOUS level's (group-cardinality-sized)
    result, so the rollup costs one big exchange plus len(keys) tiny ones.
    """
    from ray.data.aggregate import Sum

    def pad(kept: tuple):
        def fn(t: pa.Table) -> pa.Table:
            cols = {}
            for k in keys:
                cols[k] = (t[k] if k in kept else
                           pa.array([total_label] * t.num_rows, pa.string()))
            cols[out_col] = t[out_col]
            return pa.table(cols)

        return fn

    sum_type = _sum_out_type(ds, value_col)
    cur = (ds.select_columns(keys + [value_col]).groupby(keys)
           .aggregate(Sum(value_col, alias_name=out_col)))
    out = cur
    for depth in range(len(keys) - 1, -1, -1):
        kept = keys[:depth]
        if kept:
            cur = cur.groupby(kept).aggregate(Sum(out_col,
                                                  alias_name=out_col))
        else:
            total = cur.sum(out_col, ignore_nulls=True)
            # explicit type: empty input gives total=None (typed null row,
            # matching SQL's one grand-total row with NULL sum) and the
            # union schema always agrees with the finest Sum output type
            cur = rd.from_arrow(pa.table({out_col:
                                          pa.array([total], type=sum_type)}))
        out = out.union(cur.map_batches(pad(tuple(kept)),
                                        batch_format="pyarrow"))
    return out


def cube_aggregate(ds: rd.Dataset, keys: list[str], value_col: str,
                   out_col: str, total_label: str = "ALL") -> rd.Dataset:
    """SQL ``GROUP BY CUBE(keys...)`` (sum): one row per SUBSET of
    ``keys`` — all 2^len(keys) grouping sets — with rolled-up key columns
    labelled ``total_label`` (same string-key convention as
    ``rollup_aggregate``).

    Scale shape: ONE full-data shuffle at the finest level; every other
    grouping set re-aggregates the finest (group-cardinality-sized)
    result, so the cube costs one big exchange plus 2^len(keys)−1 tiny
    ones.  The finest result is materialized once and shared."""
    from itertools import combinations

    from ray.data.aggregate import Sum

    def pad(kept: tuple):
        def fn(t: pa.Table) -> pa.Table:
            cols = {}
            for k in keys:
                cols[k] = (t[k] if k in kept else
                           pa.array([total_label] * t.num_rows, pa.string()))
            cols[out_col] = t[out_col]
            return pa.table(cols)

        return fn

    finest = (ds.select_columns(keys + [value_col]).groupby(keys)
              .aggregate(Sum(value_col, alias_name=out_col))
              .materialize())          # shared by every coarser set — small
    out = finest
    subsets = [c for r in range(len(keys)) for c in combinations(keys, r)]
    for kept in subsets:
        if kept:
            cur = finest.groupby(list(kept)).aggregate(
                Sum(out_col, alias_name=out_col))
        else:
            total = finest.sum(out_col, ignore_nulls=True)
            # explicit type (see rollup_aggregate): None-safe on empty
            # input and always matches the finest Sum output type
            cur = rd.from_arrow(pa.table({out_col:
                                          pa.array([total],
                                                   type=_sum_out_type(
                                                       ds, value_col))}))
        out = out.union(cur.map_batches(pad(tuple(kept)),
                                        batch_format="pyarrow"))
    return out


def grouping_sets_aggregate(ds: rd.Dataset, sets: list[list[str]],
                            value_col: str, out_col: str,
                            total_label: str = "ALL") -> rd.Dataset:
    """SQL ``GROUP BY GROUPING SETS (sets...)`` (sum): ARBITRARY —
    possibly non-hierarchical — grouping sets, e.g. ``[["flag"],
    ["status"]]``, which neither ROLLUP (prefix levels) nor a full CUBE
    expresses alone.  Rolled-up key columns carry ``total_label`` (same
    string-key convention as ``rollup_aggregate``).

    Scale shape: ONE full-data shuffle at the common refinement (group by
    the union of all sets' keys, materialized once, group-cardinality
    rows); every requested set re-aggregates that small result.  Empty
    sets (grand total) are allowed."""
    from ray.data.aggregate import Sum

    keys: list[str] = []
    for s in sets:
        for k in s:
            if k not in keys:
                keys.append(k)
    for s in sets:
        unknown = [k for k in s if k not in keys]
        assert not unknown, unknown

    def pad(kept: tuple):
        def fn(t: pa.Table) -> pa.Table:
            cols = {}
            for k in keys:
                cols[k] = (t[k] if k in kept else
                           pa.array([total_label] * t.num_rows, pa.string()))
            cols[out_col] = t[out_col]
            return pa.table(cols)

        return fn

    sum_type = _sum_out_type(ds, value_col)
    finest = (ds.select_columns(keys + [value_col]).groupby(keys)
              .aggregate(Sum(value_col, alias_name=out_col))
              .materialize())          # shared by every set — small
    out: rd.Dataset | None = None
    for s in sets:
        if s:
            cur = finest.groupby(list(s)).aggregate(
                Sum(out_col, alias_name=out_col))
        else:
            total = finest.sum(out_col, ignore_nulls=True)
            cur = rd.from_arrow(pa.table({out_col:
                                          pa.array([total], type=sum_type)}))
        padded = cur.map_batches(pad(tuple(s)), batch_format="pyarrow")
        out = padded if out is None else out.union(padded)
    assert out is not None, "at least one grouping set required"
    return out


def unpivot(ds: rd.Dataset, id_cols: list[str], value_cols: list[str],
            attr_col: str = "attr", val_col: str = "val") -> rd.Dataset:
    """UNPIVOT / melt: one output row per (input row × value column),
    ``attr_col`` naming the source column (SQL ``UNPIVOT`` / ``UNION ALL``
    of per-column selects).  Purely per-batch — no shuffle; value columns
    are cast to a common float64."""

    def melt(t: pa.Table) -> pa.Table:
        n = t.num_rows
        ids = {c: pa.concat_arrays(
            [t[c].combine_chunks()] * len(value_cols)) for c in id_cols}
        attr = pa.array([v for v in value_cols for _ in range(n)],
                        pa.string())
        vals = pa.concat_arrays(
            [pc.cast(t[c], pa.float64()).combine_chunks()
             for c in value_cols])
        out = dict(ids)
        out[attr_col] = attr
        out[val_col] = vals
        return pa.table(out)

    return ds.select_columns(id_cols + value_cols).map_batches(
        melt, batch_format="pyarrow")


def cross_join_small(ds: rd.Dataset, small: pa.Table,
                     suffix: str = "_r") -> rd.Dataset:
    """CROSS JOIN against a SMALL broadcast side: every batch row pairs
    with every ``small`` row (``ray.put`` once; per batch, vectorized
    repeat/tile take — no shuffle).  Output size = |ds| × |small|; the
    small side must genuinely be small (dimension tables)."""
    ref = ray.put(small)

    def cross(t: pa.Table) -> pa.Table:
        s: pa.Table = ray.get(ref)
        n, m = t.num_rows, s.num_rows
        left_idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), m))
        right_idx = pa.array(np.tile(np.arange(m, dtype=np.int64), n))
        lt = t.take(left_idx)
        rt = s.take(right_idx)
        out = lt
        for name in rt.schema.names:
            out_name = name + suffix if name in lt.schema.names else name
            out = out.append_column(out_name, rt[name])
        return out

    return ds.map_batches(cross, batch_format="pyarrow")


def hash_shuffle_join(left: rd.Dataset, right: rd.Dataset, on: list[str],
                      right_on: list[str] | None = None,
                      how: Literal["inner", "left_outer", "right_outer",
                                   "full_outer"] = "inner",
                      num_partitions: int | None = None) -> rd.Dataset:
    """LARGE-LARGE join: both sides hash-partitioned on the key
    (``Dataset.join``'s hash-shuffle aggregator path) — the complement of
    ``broadcast_join`` for fact-to-fact enrichment where neither side fits
    in a broadcast (J1 "large-large", SURVEY.md §2.4; the reference's
    enrichment stream function, ``/root/reference/DESIGN.md:246``).

    ``num_partitions`` sizes the shuffle: at cluster scale use ≥ the number
    of cores so every reducer gets a partition; skewed keys should be
    salted upstream (``salted_groupby_agg`` shows the pattern)."""
    return left.join(right, join_type=how,
                     num_partitions=adaptive_join_partitions(num_partitions),
                     on=tuple(on), right_on=tuple(right_on) if right_on else None)


def asof_join(left: rd.Dataset, right: rd.Dataset, on: list[str],
              left_ts: str, right_ts: str, right_values: list[str],
              suffix: str = "_asof", strict: bool = True,
              tolerance_us: int | None = None,
              num_partitions: int | None = None) -> rd.Dataset:
    """AS-OF join: for each left row, attach ``right_values`` from the
    latest right row of the same key with ``right_ts < left_ts`` (strict,
    DuckDB ``ASOF JOIN ... ON l.ts > r.ts`` semantics) or ``<=``
    (``strict=False``).  Unmatched left rows get nulls (LEFT semantics).
    ``tolerance_us`` bounds the lookback: matches older than
    ``left_ts - tolerance_us`` microseconds are treated as no-match
    (nulls) — the "within N days" business variant (q112).

    Ray-Data-first shape: both sides are tagged and UNIONED, then hash-
    partitioned by key (``ops.grouped.partitioned_group_apply`` — O(P)
    Python callbacks, NOT one per key); within a partition ONE
    ``pd.merge_asof(..., by=on)`` C kernel matches ALL keys at once
    against an int64 right-row INDEX, and the right value columns are
    gathered Arrow-native (``take`` + ``if_else``) so unmatched rows get
    typed nulls with no int64→float64 round-trip.  Nothing broadcasts and
    nothing gathers on the driver — the partitioning assumption is that
    one PARTITION (≈ #keys/P keys' rows) fits in a worker; raise
    ``num_partitions`` as data grows, salt a pathological hot key
    upstream."""
    rv_names = [f"{c}{suffix}" for c in right_values]

    left_schema = left.schema()
    left_cols = list(left_schema.names)
    left_types = dict(zip(left_schema.names, left_schema.types))
    rtype = {c: t for c, t in zip(right.schema().names, right.schema().types)}

    def pad_left(t: pa.Table) -> pa.Table:
        n = t.num_rows
        t = t.append_column("__rts", pa.nulls(n, pa.timestamp("us")))
        for c, name in zip(right_values, rv_names):
            t = t.append_column(name, pa.nulls(n, rtype[c]))
        return t.append_column("__side", pa.array(np.zeros(n, dtype=np.int8)))

    def pad_right(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols: dict = {}
        for c in left_cols:
            cols[c] = t[c] if c in on else pa.nulls(n, left_types[c])
        cols["__rts"] = pc.cast(t[right_ts], pa.timestamp("us"))
        for c, name in zip(right_values, rv_names):
            cols[name] = t[c]
        cols["__side"] = pa.array(np.ones(n, dtype=np.int8))
        return pa.table(cols)

    lt = left.map_batches(pad_left, batch_format="pyarrow")
    rt = right.select_columns(
        list(dict.fromkeys(on + [right_ts] + right_values))).map_batches(
        pad_right, batch_format="pyarrow")
    unioned = lt.union(rt)

    def per_partition(g: pa.Table) -> pa.Table:
        side = np.asarray(g["__side"].to_numpy(zero_copy_only=False))
        lrows = g.filter(pa.array(side == 0))
        rrows = g.filter(pa.array(side == 1))
        out_cols = {c: lrows[c] for c in left_cols}
        if lrows.num_rows == 0 or rrows.num_rows == 0:
            for name in rv_names:
                out_cols[name] = lrows[name]  # padded all-null
            return pa.table(out_cols)
        # one C-kernel merge_asof over ALL keys of the partition: match a
        # right-row POSITION (int64, exact in float64 at any realistic
        # partition size), then gather values Arrow-native
        lts = np.asarray(pc.cast(pc.cast(lrows[left_ts], pa.timestamp("us")),
                                 pa.int64()).to_numpy(zero_copy_only=False))
        rts = np.asarray(pc.cast(rrows["__rts"], pa.int64()).to_numpy(
            zero_copy_only=False))
        ldf = lrows.select(on).to_pandas()
        ldf["__ts_i"] = lts
        ldf["__lpos"] = np.arange(len(ldf), dtype=np.int64)
        rdf = rrows.select(on).to_pandas()
        rdf["__ts_i"] = rts
        rdf["__rpos"] = np.arange(len(rdf), dtype=np.int64)
        ldf = ldf.sort_values("__ts_i", kind="mergesort")
        rdf = rdf.sort_values("__ts_i", kind="mergesort")
        merged = pd.merge_asof(ldf, rdf, on="__ts_i", by=list(on),
                               direction="backward",
                               allow_exact_matches=not strict,
                               tolerance=tolerance_us)
        idx = merged["__rpos"].fillna(-1).to_numpy(dtype=np.int64)
        matched = pa.array(idx >= 0)
        lpos = pa.array(merged["__lpos"].to_numpy(dtype=np.int64))
        out_cols = {c: lrows[c].take(lpos) for c in left_cols}
        take_idx = pa.array(np.clip(idx, 0, None))
        for c, name in zip(right_values, rv_names):
            vals = rrows[name].take(take_idx)
            if isinstance(vals, pa.ChunkedArray):
                vals = vals.combine_chunks()
            out_cols[name] = pc.if_else(matched, vals,
                                        pa.nulls(len(idx), rtype[c]))
        return pa.table(out_cols)

    from .grouped import partitioned_group_apply

    return partitioned_group_apply(
        unioned, list(on), per_partition,
        num_partitions=num_partitions or 64, batch_format="pyarrow")


def top_k(ds: rd.Dataset, key: str, k: int, descending: bool = True,
          columns: list[str] | None = None,
          tie_keys: list[tuple[str, str]] | None = None) -> pa.Table:
    """Global top-k WITHOUT a global sort (O4): per-batch local top-k
    (vectorized partition+slice), then one tiny driver-side merge.
    Returns a pa.Table (small by construction).

    ``tie_keys`` — extra ``(column, "ascending"|"descending")`` sort keys
    applied after ``key`` so the boundary at rank k is deterministic when
    key values tie (SQL ``ORDER BY key DESC, tie...`` LIMIT k); they
    participate in the per-batch selection too, so no tied candidate is
    dropped early."""
    if columns:
        ds = ds.select_columns(columns)
    sort_keys = ([(key, "descending" if descending else "ascending")]
                 + list(tie_keys or []))

    def local_topk(t: pa.Table) -> pa.Table:
        if t.num_rows <= k:
            return t
        idx = pc.select_k_unstable(t, k, sort_keys)
        return t.take(idx)

    parts = [t for t in ray.get(ds.map_batches(local_topk, batch_format="pyarrow")
                                .materialize().to_arrow_refs()) if t.num_rows]
    if not parts:
        return pa.table({})
    merged = pa.concat_tables(parts, promote_options="permissive")
    idx = pc.select_k_unstable(merged, min(k, merged.num_rows), sort_keys)
    return merged.take(idx).sort_by(sort_keys)


def tumbling_window_column(ds: rd.Dataset, ts_col: str, every_s: int,
                           out_col: str = "window_start") -> rd.Dataset:
    """Assign tumbling time windows (W2: 5-minute windows per key,
    ``DESIGN.md:283-296``): window_start = floor(epoch/every)*every as a
    timestamp column, computed vectorized per batch — windowing becomes an
    ordinary groupby key, no stream state."""

    def assign(t: pa.Table) -> pa.Table:
        # normalize to µs first — pandas-sourced columns arrive as ns
        us = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64())
        every_us = every_s * 1_000_000
        start = pc.multiply(pc.floor(pc.divide(us, every_us)), every_us)
        start = pc.cast(pc.cast(start, pa.int64()), pa.timestamp("us"))
        return t.append_column(out_col, start)

    return ds.map_batches(assign, batch_format="pyarrow")


def hopping_window_flatmap(ds: rd.Dataset, ts_col: str, size_s: int, hop_s: int,
                           out_col: str = "window_start_s") -> rd.Dataset:
    """Sliding/hopping windows (W-stage extension beyond the reference's
    tumbling-only ``DESIGN.md:286``): each row is replicated once per
    window containing it (``size_s // hop_s`` copies, vectorized
    ``Table.take`` — no per-row Python), after which windowing is an
    ordinary groupby key.  ``size_s`` must be a multiple of ``hop_s``.
    ``out_col`` is the window start in epoch seconds (int64)."""
    if size_s % hop_s:
        raise ValueError("size_s must be a multiple of hop_s")
    k = size_s // hop_s

    def assign(t: pa.Table) -> pa.Table:
        us = np.asarray(pc.cast(pc.cast(t[ts_col], pa.timestamp("us")),
                                pa.int64()).to_numpy(zero_copy_only=False))
        base = (us // (hop_s * 1_000_000)) * hop_s  # newest window start, secs
        n = t.num_rows
        rep = t.take(pa.array(np.repeat(np.arange(n), k)))
        offs = np.tile(np.arange(k, dtype=np.int64) * hop_s, n)
        starts = np.repeat(base, k) - offs
        return rep.append_column(out_col, pa.array(starts, pa.int64()))

    return ds.map_batches(assign, batch_format="pyarrow")


def semi_join_keys(ds: rd.Dataset, keys: np.ndarray | set, key_col: str,
                   anti: bool = False) -> rd.Dataset:
    """Semi/anti join against a broadcast key set (J2 pattern)."""
    ref = ray.put(set(keys) if not isinstance(keys, set) else keys)

    class Probe:
        def __init__(self):
            self.keys = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            mask = batch[key_col].isin(self.keys)
            return batch[~mask] if anti else batch[mask]

    return ds.map_batches(Probe, batch_format="pandas", concurrency=actor_pool())


def salted_groupby_agg(ds: rd.Dataset, keys: list[str], aggs: dict[str, str],
                       n_salts: int = 16, salt_source: str | None = None) -> rd.Dataset:
    """Skew-safe grouped aggregation (SURVEY.md §4.2): a hot key (the Zipf
    giant repo) would make one reducer the straggler in a plain
    ``groupby(keys)``; salting splits every key into ``n_salts`` sub-groups
    for the wide first phase, then a tiny second groupby folds the partials.

    ``aggs`` maps column → one of sum|count|min|max|mean.  Results are
    identical to the unsalted groupby (property-tested): every agg here is
    algebraic — partials fold losslessly.  ``mean`` follows SQL AVG
    semantics: the denominator counts only NON-NULL values (a 0/1
    is-valid indicator summed through both phases), so null-bearing
    columns average correctly; ``count`` is COUNT(*) row count.
    """
    from ray.data.aggregate import Count, Max, Min, Sum

    from ..sketches import hash64

    mean_cols = [c for c, how in aggs.items() if how == "mean"]

    def add_salt(t: pa.Table) -> pa.Table:
        src = (np.asarray(t[salt_source].to_pandas(), dtype=object)
               if salt_source and salt_source in t.column_names
               else np.arange(t.num_rows))
        salt = (hash64(src) % np.uint64(n_salts)).astype(np.int64)
        t = t.append_column("__salt", pa.array(salt))
        for c in mean_cols:
            t = t.append_column(f"__nn_{c}",
                                pc.cast(pc.is_valid(t[c]), pa.int64()))
        return t

    phase1_aggs = []
    for col, how in aggs.items():
        if how in ("sum", "mean"):
            phase1_aggs.append(Sum(col, alias_name=f"__sum_{col}"))
        if how == "mean":
            phase1_aggs.append(Sum(f"__nn_{col}", alias_name=f"__cnt_{col}"))
        if how == "count":
            phase1_aggs.append(Count(alias_name=f"__cnt_{col}"))
        if how == "min":
            phase1_aggs.append(Min(col, alias_name=f"__min_{col}"))
        if how == "max":
            phase1_aggs.append(Max(col, alias_name=f"__max_{col}"))
    partial = (ds.map_batches(add_salt, batch_format="pyarrow")
               .groupby(keys + ["__salt"]).aggregate(*phase1_aggs))

    phase2_aggs = []
    for col, how in aggs.items():
        if how in ("sum", "mean"):
            phase2_aggs.append(Sum(f"__sum_{col}", alias_name=f"__sum_{col}"))
        if how in ("count", "mean"):
            phase2_aggs.append(Sum(f"__cnt_{col}", alias_name=f"__cnt_{col}"))
        if how == "min":
            phase2_aggs.append(Min(f"__min_{col}", alias_name=f"__min_{col}"))
        if how == "max":
            phase2_aggs.append(Max(f"__max_{col}", alias_name=f"__max_{col}"))
    folded = partial.groupby(keys).aggregate(*phase2_aggs)

    def finalize(t: pa.Table) -> pa.Table:
        out: dict = {k: t[k] for k in keys}
        for col, how in aggs.items():
            if how == "sum":
                out[f"sum_{col}"] = t[f"__sum_{col}"]
            elif how == "count":
                out[f"count_{col}"] = t[f"__cnt_{col}"]
            elif how == "mean":
                out[f"mean_{col}"] = pc.divide(
                    pc.cast(t[f"__sum_{col}"], pa.float64()),
                    pc.cast(t[f"__cnt_{col}"], pa.float64()))
            elif how == "min":
                out[f"min_{col}"] = t[f"__min_{col}"]
            elif how == "max":
                out[f"max_{col}"] = t[f"__max_{col}"]
        return pa.table(out)

    return folded.map_batches(finalize, batch_format="pyarrow")


def range_join(left: rd.Dataset, right: rd.Dataset, left_ts: str,
               right_start: str, right_end: str,
               right_values: list[str], bucket_width_s: float,
               num_partitions: int = 32) -> rd.Dataset:
    """Pure RANGE join (no equi key): attach ``right_values`` from every
    right interval ``[right_start, right_end)`` containing ``left_ts``.

    Naive range joins are cross products; the scale shape here is the
    standard **bucketed interval join**: time is cut into buckets of
    ``bucket_width_s``, each interval is REPLICATED to every bucket it
    overlaps, each left row lands in exactly ONE bucket (its own
    timestamp's), and a hash-shuffle equi-join on the bucket id followed
    by the exact containment filter yields each matching (row, interval)
    pair exactly once — no dedup pass needed.

    Choose ``bucket_width_s`` ≈ the typical interval length: replication
    factor is ceil(len/width)+1 ≤ 2 for intervals no longer than a
    bucket, and shuffle volume stays ∝ data size.  Skew note: a bucket
    holding a hot burst of rows is one join partition — salt upstream or
    narrow the width if a single bucket dominates.

    Inner-join semantics (unmatched left rows drop, rows matching k
    intervals emit k output rows), mirroring SQL
    ``FROM left JOIN right ON ts >= start AND ts < end`` (q41's oracle).
    """
    width_us = np.int64(round(bucket_width_s * 1_000_000))

    def bucket_left(t: pa.Table) -> pa.Table:
        tsi = pc.cast(pc.cast(t[left_ts], pa.timestamp("us")), pa.int64())
        b = pc.floor(pc.divide(pc.cast(tsi, pa.float64()), float(width_us)))
        return t.append_column("__bucket", pc.cast(b, pa.int64()))

    def explode_right(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("__bucket", pa.array([], pa.int64()))
        s = np.asarray(pc.cast(pc.cast(t[right_start], pa.timestamp("us")),
                               pa.int64()).to_numpy(zero_copy_only=False))
        e = np.asarray(pc.cast(pc.cast(t[right_end], pa.timestamp("us")),
                               pa.int64()).to_numpy(zero_copy_only=False))
        b0 = np.floor_divide(s, width_us)
        # last bucket the half-open interval touches: floor((e-1)/width),
        # degenerate (e <= s) intervals keep one copy and never match
        b1 = np.maximum(np.floor_divide(np.maximum(e - 1, s), width_us), b0)
        reps = (b1 - b0 + 1).astype(np.int64)
        take = np.repeat(np.arange(t.num_rows, dtype=np.int64), reps)
        out = t.take(pa.array(take))
        # per-copy bucket id: b0[row] + offset within that row's run
        offsets = np.arange(len(take), dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps, reps)
        return out.append_column(
            "__bucket", pa.array(np.repeat(b0, reps) + offsets))

    lt = left.map_batches(bucket_left, batch_format="pyarrow")
    rcols = list(dict.fromkeys([right_start, right_end] + right_values))
    rt = right.select_columns(rcols).map_batches(
        explode_right, batch_format="pyarrow")

    joined = hash_shuffle_join(lt, rt, on=["__bucket"],
                               num_partitions=num_partitions)

    left_names = [c for c in left.schema().names]

    def contain_filter(t: pa.Table) -> pa.Table:
        tsi = pc.cast(pc.cast(t[left_ts], pa.timestamp("us")), pa.int64())
        s = pc.cast(pc.cast(t[right_start], pa.timestamp("us")), pa.int64())
        e = pc.cast(pc.cast(t[right_end], pa.timestamp("us")), pa.int64())
        keep = pc.and_(pc.greater_equal(tsi, s), pc.less(tsi, e))
        t = t.filter(keep)
        return t.select(left_names + right_values)

    return joined.map_batches(contain_filter, batch_format="pyarrow")


def pivot_counts(ds: rd.Dataset, key_col: str, pivot_col: str,
                 pivot_values: list[str]) -> rd.Dataset:
    """PIVOT by counts: one output row per ``key_col`` value with one
    int64 column per entry of ``pivot_values`` holding the count of rows
    with that (key, pivot) combination — SQL
    ``COUNT(*) FILTER (WHERE pivot = v)`` per v (q44's oracle).

    Scale shape: the pivot happens INSIDE ``map_batches`` (each batch
    reduces to <= #keys-in-batch wide partial rows via one
    ``pd.crosstab`` C kernel), so the shuffle that follows moves
    pre-aggregated wide rows, not raw events — the same partial/combine
    discipline as ``salted_groupby_agg``.  ``pivot_values`` must be the
    (small, known) pivot domain: unknown values are ignored, matching
    the SQL FILTER formulation.  A wide pivot (thousands of columns)
    belongs in a (key, pivot)-grouped long table instead.
    """
    from ray.data.aggregate import Sum

    cols = [str(v) for v in pivot_values]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame({key_col: batch[key_col],
                                 **{c: pd.Series([], dtype="int64")
                                    for c in cols}})
        ct = pd.crosstab(batch[key_col], batch[pivot_col])
        ct = ct.reindex(columns=pivot_values, fill_value=0)
        ct.columns = cols
        out = ct.reset_index()
        out[cols] = out[cols].astype("int64")
        # arrow-out: pandas blocks into the sort-based groupby exchange
        # are ~14x slower than arrow blocks (ROUND_NOTES r4)
        return pa.Table.from_pandas(out, preserve_index=False)

    partials = ds.select_columns([key_col, pivot_col]).map_batches(
        partial, batch_format="pandas")
    return partials.groupby(key_col).aggregate(
        *[Sum(c, alias_name=c) for c in cols])


def argmax_by(ds: rd.Dataset, key_cols: list[str], value_col: str,
              arg_col: str, max_name: str = "max_value",
              arg_name: str = "argmax") -> rd.Dataset:
    """Distributed ARGMAX: for each key, the ``arg_col`` value (ties
    broken by MIN) attaining the per-key maximum of ``value_col``.

    Two streaming scans, zero row-data shuffle:

    1. ``groupby(key).max(value)`` — a #keys-row result (partial max
       combines inside Ray's aggregate);
    2. the per-key maxima broadcast via ``ray.put`` into a filter pass —
       each batch keeps only rows equal to its key's max (exact double
       equality: both sides carry the SAME stored values, no arithmetic)
       — so only the winning rows (∝ #keys + ties) reach the final tiny
       ``min(arg)`` aggregate.

    Output: key_cols + ``max_name`` (the max) + ``arg_name`` (the arg).
    The #keys-row maxima table must fit on the driver/workers (same
    contract as every broadcast side)."""
    mx = ds.groupby(key_cols).max(value_col).to_pandas()
    mcol = f"max({value_col})"
    mx = mx.rename(columns={mcol: max_name})
    mx_ref = ray.put(mx)

    def keep_winners(t: pa.Table) -> pa.Table:
        side = ray.get(mx_ref)
        pdf = t.select(key_cols + [value_col, arg_col]).to_pandas()
        merged = pdf.merge(side, on=key_cols, how="inner")
        won = merged[merged[value_col].to_numpy()
                     == merged[max_name].to_numpy()]
        return pa.Table.from_pandas(
            won[key_cols + [max_name, arg_col]], preserve_index=False)

    winners = ds.map_batches(keep_winners, batch_format="pyarrow")
    out = winners.groupby(key_cols + [max_name]).min(arg_col)

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            [arg_name if c == f"min({arg_col})" else c
             for c in t.schema.names])

    return out.map_batches(rename, batch_format="pyarrow")


SALT_COL = "__skew_salt"


def skew_join(left: rd.Dataset, right: rd.Dataset, on: list[str],
              how: Literal["inner", "left_outer"] = "inner",
              num_partitions: int = 32, num_salts: int = 16,
              hot_keys: list | None = None, hot_frac: float = 0.01,
              detect_k: int = 64) -> rd.Dataset:
    """Skew-aware large-large join: hot keys are SALTED so no single
    reducer receives a hot key's entire row set.

    A plain hash-shuffle join sends every row of a key to one reducer —
    a key holding 5% of a 100 TB fact table melts that worker.  Here:

    1. hot-key detection (unless ``hot_keys`` given): mergeable
       Misra-Gries summaries over the left key column (KB-scale sketch,
       one streaming pass) — ``detect_k`` is raised to ≥ 1/hot_frac so
       the MG presence guarantee (any value with frequency > n/(k+1) is
       in the summary) actually covers every key above ``hot_frac``;
       with the upper-bound test this is a superset: false positives
       only cost a little extra replication, never correctness;
    2. left hot rows get a salt in [0, num_salts) (round-robin per
       batch), cold rows salt 0;
    3. right hot rows are REPLICATED once per salt; cold rows salt 0;
    4. one ordinary hash-shuffle join on ``on + [salt]``.

    Replication cost: (num_salts - 1) × right rows of hot keys — use
    when the right side is dimension-like on the hot keys.  ``inner``
    and ``left_outer`` only: with the right side replicated per salt, a
    left row's match set per salt equals the unsalted match set, and
    unmatched-right semantics (which the other join types need) would
    count replicas.  Composite keys need explicit ``hot_keys`` (tuples);
    single-column keys auto-detect."""
    if how not in ("inner", "left_outer"):
        raise ValueError("skew_join supports inner/left_outer only "
                         "(right/full outer would duplicate unmatched "
                         "replicated right rows)")
    if hot_keys is None:
        if len(on) != 1:
            raise ValueError("auto hot-key detection needs a single join "
                             "column; pass hot_keys for composite keys")
        from .text import heavy_hitters

        key = on[0]
        total = left.count()
        # MG guarantees presence only for freq > n/(k+1): size k to the
        # threshold so a key at hot_frac can never be evicted unseen
        k = max(detect_k, int(np.ceil(1.0 / hot_frac)) + 1)
        hh = heavy_hitters(left.select_columns([key]), key, k=k)
        ub = hh["count_lb"] + hh.attrs.get("decrements", 0)
        hot_keys = hh.loc[ub >= hot_frac * max(total, 1), key].tolist()
    if not hot_keys:
        return hash_shuffle_join(left, right, on, how=how,
                                 num_partitions=num_partitions)

    if len(on) == 1:
        hot_obj = pd.Index(hot_keys)

        def is_hot_mask(t: pa.Table, hot) -> np.ndarray:
            return t[on[0]].to_pandas().isin(hot).to_numpy()
    else:
        hot_obj = pd.DataFrame(list(hot_keys), columns=on)

        def is_hot_mask(t: pa.Table, hot) -> np.ndarray:
            probe = t.select(on).to_pandas()
            m = probe.merge(hot.assign(__hot=1), on=on, how="left")
            return m["__hot"].notna().to_numpy()

    hot_ref = ray.put(hot_obj)

    def salt_left(t: pa.Table) -> pa.Table:
        is_hot = is_hot_mask(t, ray.get(hot_ref))
        salt = np.zeros(t.num_rows, dtype=np.int64)
        n_hot = int(is_hot.sum())
        if n_hot:
            salt[is_hot] = np.arange(n_hot, dtype=np.int64) % num_salts
        return t.append_column(SALT_COL, pa.array(salt))

    def explode_right(t: pa.Table) -> pa.Table:
        is_hot = is_hot_mask(t, ray.get(hot_ref))
        cold = t.filter(pa.array(~is_hot)).append_column(
            SALT_COL, pa.array(np.zeros(int((~is_hot).sum()),
                                        dtype=np.int64)))
        hot = t.filter(pa.array(is_hot))
        if hot.num_rows == 0:
            return cold
        parts = [cold]
        for s in range(num_salts):
            parts.append(hot.append_column(
                SALT_COL, pa.array(np.full(hot.num_rows, s,
                                           dtype=np.int64))))
        return pa.concat_tables(parts)

    lsalted = left.map_batches(salt_left, batch_format="pyarrow")
    rsalted = right.map_batches(explode_right, batch_format="pyarrow")
    joined = hash_shuffle_join(lsalted, rsalted, on + [SALT_COL], how=how,
                               num_partitions=num_partitions)
    return joined.drop_columns([SALT_COL])


def grouped_mode(ds: rd.Dataset, key_cols: list[str], value_col: str,
                 out_col: str = "mode",
                 count_name: str = "mode_count") -> rd.Dataset:
    """Most frequent ``value_col`` per key (exact), ties broken by MIN
    value — a deterministic MODE() (SQL's is tie-ambiguous).

    Composition: #(key,value)-sized count groupby, then
    :func:`argmax_by` over the counts — so the broadcast side is the
    #keys-row maxima and no raw rows shuffle beyond the count
    partials."""
    from ray.data.aggregate import Count

    counts = (ds.groupby(key_cols + [value_col])
              .aggregate(Count(alias_name="__n")))
    return argmax_by(counts, key_cols, "__n", value_col,
                     max_name=count_name, arg_name=out_col)


MARK_COL = "__semi_mark"


def shuffle_semi_join(left: rd.Dataset, right: rd.Dataset, on: list[str],
                      right_on: list[str] | None = None,
                      anti: bool = False,
                      num_partitions: int | None = None) -> rd.Dataset:
    """LARGE-LARGE semi/anti join — referential membership when the
    build side is itself too big to broadcast (the complement of
    ``broadcast_join(how="semi"/"anti")`` / ``semi_join_keys``).

    The right side reduces to its DISTINCT key set (key columns only —
    the shuffle never carries right payload), gains a marker column, and
    left_outer-joins the left; keys being distinct guarantees no left
    row duplication.  Semi keeps marker hits, anti keeps misses; the
    marker is dropped.  Left row content is otherwise untouched."""
    r_on = right_on or on
    keys = distinct(right.select_columns(r_on), r_on)
    if right_on:
        ren = dict(zip(r_on, on))
        keys = keys.map_batches(
            lambda t, _m=ren: t.rename_columns(
                [_m.get(c, c) for c in t.schema.names]),
            batch_format="pyarrow")

    def mark(t: pa.Table) -> pa.Table:
        return t.append_column(
            MARK_COL, pa.array(np.ones(t.num_rows, dtype=np.int8)))

    keys = keys.map_batches(mark, batch_format="pyarrow")
    joined = left.join(keys, join_type="left_outer",
                       num_partitions=adaptive_join_partitions(num_partitions),
                       on=tuple(on))

    def keep(t: pa.Table) -> pa.Table:
        hit = pc.is_valid(t[MARK_COL])
        mask = pc.invert(hit) if anti else hit
        return t.filter(mask).drop_columns([MARK_COL])

    return joined.map_batches(keep, batch_format="pyarrow")


def bloom_semi_join(left: rd.Dataset, right: rd.Dataset, on: list[str],
                    right_on: list[str] | None = None,
                    capacity: int | None = None, fpr: float = 1e-4,
                    exact: bool = True, anti: bool = False,
                    num_partitions: int = 32) -> rd.Dataset:
    """Bloom-accelerated semi/anti join — the classic bloom-join shuffle
    reducer for when BOTH sides are large.

    A distributed Bloom over the right keys (per-block partial bit
    arrays OR-merged — the driver never sees keys) broadcasts once;
    left rows failing the probe are dropped BEFORE any shuffle (a Bloom
    has no false negatives, so no true match is lost).  With
    ``exact=True`` the surviving ~match+fpr rows then pass through
    :func:`shuffle_semi_join` for exactness — the shuffle now carries
    only the match-side fraction of the left table instead of all of
    it.  ``exact=False`` returns the probabilistic superset (a valid
    pre-filter stage).  ``anti=True`` (exact only) subtracts the exact
    semi result's keys... for anti the Bloom cannot pre-drop (false
    positives would surface as false negatives of the anti), so it
    degrades to :func:`shuffle_semi_join` directly."""
    if anti:
        # Bloom passes can't help anti (a false positive would wrongly
        # drop an anti row) — delegate to the exact path.
        return shuffle_semi_join(left, right, on, right_on=right_on,
                                 anti=True, num_partitions=num_partitions)
    from ..checks import hash_keys
    from ..pipeline import build_membership_distributed

    r_on = right_on or on
    cap = capacity if capacity is not None else right.count()
    bf = build_membership_distributed(right.select_columns(r_on), r_on,
                                      capacity=max(cap, 1), fpr=fpr)
    ref = ray.put(bf)

    class Probe:
        def __init__(self):
            self.bf = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t
            return t.filter(pa.array(self.bf.contains(hash_keys(t, on))))

    survivors = left.map_batches(Probe, batch_format="pyarrow",
                                 concurrency=actor_pool())
    if not exact:
        return survivors
    return shuffle_semi_join(survivors, right, on, right_on=right_on,
                             num_partitions=num_partitions)


def union_by_name(dss: "list[rd.Dataset]") -> rd.Dataset:
    """UNION ALL BY NAME: concatenate Datasets whose schemas differ,
    padding each side's missing columns with typed nulls (the
    multi-source ingest primitive — feeds with drifting/partial schemas
    union into one stream without manual per-source projection).

    The unified schema is the name→type union in first-seen order; a
    column appearing with CONFLICTING types raises (silent coercion
    hides upstream schema drift — run the ``schema_drift`` preflight
    instead of papering over it).  Wide values should be plain
    ``pa.binary()``/``pa.string()`` columns (ROUND_NOTES: tensor
    extension columns do not survive unions with padded blocks)."""
    import pyarrow as pa

    unified: dict[str, pa.DataType] = {}
    for ds in dss:
        sch = ds.schema()
        for name, typ in zip(sch.names, sch.types):
            if not isinstance(typ, pa.DataType):
                # pandas-block schemas carry numpy dtypes; object columns
                # are strings in this engine's data model
                import numpy as _np

                typ = (pa.string() if typ == _np.dtype(object)
                       else pa.from_numpy_dtype(typ))
            if name in unified and unified[name] != typ:
                raise TypeError(
                    f"union_by_name: column {name!r} has conflicting "
                    f"types {unified[name]} vs {typ}")
            unified.setdefault(name, typ)

    names = list(unified)

    def pad(t: pa.Table) -> pa.Table:
        cols = []
        for n in names:
            if n in t.column_names:
                cols.append(t[n])
            else:
                cols.append(pa.nulls(len(t), unified[n]))
        return pa.table(dict(zip(names, cols)))

    padded = [ds.map_batches(pad, batch_format="pyarrow") for ds in dss]
    out = padded[0]
    for nxt in padded[1:]:
        out = out.union(nxt)
    return out


def join_cardinality(left: rd.Dataset, right: rd.Dataset,
                     on: list[str]) -> pd.DataFrame:
    """EXACT inner-join output cardinality WITHOUT running the join —
    the planner-style pre-flight an engine needs before committing to a
    shuffle at 100 TB: Σ over matching keys of cl(k)·cr(k), plus the
    matching-key count and each side's distinct-key count.

    Cost shape: each side reduces to a (key, cnt) table via per-batch
    partial combine + one key-cardinality ``groupby`` (never row-scale
    after the first pass); the two count tables join hash-to-hash and a
    scalar aggregate finishes.  Use it to decide broadcast vs shuffle vs
    salted join, or to refuse a query whose output would explode.

    Returns one row: ``n_left_keys, n_right_keys, n_common_keys,
    join_rows``.
    """
    from ray.data.aggregate import Count, Sum

    def side_counts(ds: rd.Dataset, name: str) -> rd.Dataset:
        def partial(t: pa.Table) -> pa.Table:
            g = t.select(on).group_by(on).aggregate([([], "count_all")])
            return g.rename_columns(list(on) + [name])

        return (ds.select_columns(list(on))
                .map_batches(partial, batch_format="pyarrow")
                .groupby(list(on)).aggregate(Sum(name, alias_name=name)))

    lc = side_counts(left, "cl")
    rc = side_counts(right, "cr")
    n_left = lc.count()
    n_right = rc.count()
    joined = lc.join(rc, join_type="inner", on=tuple(on),
                     num_partitions=adaptive_join_partitions())

    def product(t: pa.Table) -> pa.Table:
        cl = t["cl"].to_numpy(zero_copy_only=False)
        cr = t["cr"].to_numpy(zero_copy_only=False)
        return pa.table({"rows": pa.array(cl * cr)})

    stats = (joined.map_batches(product, batch_format="pyarrow")
             .aggregate(Count(alias_name="n_common"),
                        Sum("rows", alias_name="join_rows")))
    return pd.DataFrame({
        "n_left_keys": [int(n_left)],
        "n_right_keys": [int(n_right)],
        "n_common_keys": [int(stats["n_common"] or 0)],
        "join_rows": [int(stats["join_rows"] or 0)],
    })
