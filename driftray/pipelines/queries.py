"""Driver-facing query inventory (SURVEY.md §2 coverage).

The catalogue holds only queries built on the validation engine's own
modules (checks, sketches, drift, spec, pipeline, sources and the zone
maps): 31 SQL-expressible ``q*`` queries and 6 ``nq_*`` ones.

Each ``q_*`` function takes ``sf_dir`` (a testdata directory per
TESTDATA.md) and returns a Dataset / pandas DataFrame / pyarrow Table.
``ORACLE_SQL`` holds the DuckDB-equivalent ANSI SQL for every
SQL-expressible query; column names match the Ray output EXACTLY (the
driver's value-hash sorts columns by name).  Float aggregates are rounded
identically on both sides to keep hashes stable across summation orders.

Mapping to SURVEY.md §2 operators is noted per query (e.g. A1 windowed
aggregate, J2 referential, D2 dedup, O4 top-k, M11 sha256).

The validation, profile and drift queries call the engine rather than a
copy of it, so their oracles check the engine's own paths:

- ``pipeline.validate_dataset`` (the kernel pass, one plain task per
  row group of the table's file, its partials reduced on the driver):
  the expectation counters of q127, q128, q129, q140 and q173, the
  grouped profiles of q17, the verdict rows of
  ``nq_validate_documents`` and ``nq_validate_events`` (with the
  table-wide count of ``pipeline.uniqueness_violations``), and the
  profiles of the two halves of the events stream (``_half_profiles``,
  the halves as windows): q139's and q146's histograms and
  ``nq_drift_events``' profiles;
- ``pipeline.drift_report``: the KS/PSI/JS rows of ``nq_drift_events``,
  with the first half's profiles as the baseline;
- ``sensor.detect_stream``: the detector replay of
  ``nq_unusual_ratio_events``;
- ``drift.windowed_drift_series``: q145 and ``nq_daily_drift``;
- ``drift.ks_exact_distributed``: q179.

The halves split at ``_midpoint``, one ``pc.min_max`` task per row
group folded on the driver (q30, q139, q146, ``nq_drift_events``).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..checks import sha256_hex

ROUND = 2  # money-ish aggregates
ROUND_F = 6  # means / ratios


def _t(sf_dir: str, name: str, columns=None, **kw) -> rd.Dataset:
    return rd.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns, **kw)


def _row_groups(sf_dir: str, name: str, columns=None):
    """``map_rows(fn)`` over every row group of the ``name`` table, as
    ``pipeline.validate_dataset`` takes it: one plain task per row group
    (``ops.zonemap.map_row_groups``), reading ``columns``."""
    from ..ops.zonemap import map_row_groups, row_groups_of
    from ..sources import read_footers

    return functools.partial(
        map_row_groups, row_groups_of(read_footers(f"{sf_dir}/{name}.parquet")),
        columns=columns)


def _round_cols(df: pd.DataFrame, spec: dict[str, int]) -> pd.DataFrame:
    for c, nd in spec.items():
        df[c] = df[c].astype(float).round(nd)
    return df


# -- A3-style groupby aggregate (TPC-H Q1 shape) ------------------------------

def q01_pricing_summary(sf_dir: str):
    """Grouped aggregate with computed column (SURVEY A1/A3/M1)."""
    from ray.data.aggregate import Count, Mean, Sum

    ds = _t(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity",
                                 "l_extendedprice", "l_discount"])

    def add_revenue(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return t.append_column("revenue", rev)

    out = (ds.map_batches(add_revenue, batch_format="pyarrow")
           .groupby(["l_returnflag", "l_linestatus"])
           .aggregate(Sum("l_quantity", alias_name="sum_qty"),
                      Sum("l_extendedprice", alias_name="sum_base_price"),
                      Sum("revenue", alias_name="sum_revenue"),
                      Mean("l_quantity", alias_name="avg_qty"),
                      Count(alias_name="count_order")))
    df = out.to_pandas()
    return _round_cols(df, {"sum_qty": ROUND, "sum_base_price": ROUND,
                            "sum_revenue": ROUND, "avg_qty": ROUND_F})


# -- filter + project + aggregate (M3/M4) -------------------------------------

def q02_revenue_by_flag(sf_dir: str):
    from ray.data.aggregate import Sum

    ds = _t(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice",
                                 "l_discount", "l_shipdate"])

    def fn(t: pa.Table) -> pa.Table:
        keep = pc.less(t["l_shipdate"], pa.scalar(np.datetime64("1998-01-01", "us")))
        t = t.filter(keep)
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"l_returnflag": t["l_returnflag"], "revenue": rev})

    out = (ds.map_batches(fn, batch_format="pyarrow")
           .groupby("l_returnflag").aggregate(Sum("revenue", alias_name="revenue")))
    return _round_cols(out.to_pandas(), {"revenue": ROUND})


# -- uniqueness / duplicate keys (D2, A7) ------------------------------------

def q10_duplicate_users(sf_dir: str):
    ds = _t(sf_dir, "events", ["user_id"])
    counts = ds.groupby("user_id").count()
    out = counts.map_batches(
        lambda t: pa.table({"user_id": t["user_id"],
                            "cnt": pc.cast(t["count()"], pa.int64())}),
        batch_format="pyarrow").map_batches(
        lambda t: t.filter(pc.greater(t["cnt"], 1)), batch_format="pyarrow")
    return out


# -- completeness counters (M7/A3) -------------------------------------------

def q11_completeness_documents(sf_dir: str):
    """Per-batch partial counts + final merge, DESIGN.md:344-357 semantics."""
    ds = _t(sf_dir, "documents", ["text", "lang", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        null_text = pc.sum(pc.cast(pc.is_null(t["text"]), pa.int64())).as_py() or 0
        empty_text = pc.sum(pc.cast(pc.equal(pc.fill_null(t["text"], ""), ""),
                                    pa.int64())).as_py() or 0
        null_lang = pc.sum(pc.cast(pc.is_null(t["lang"]), pa.int64())).as_py() or 0
        return pa.table({"n_rows": pa.array([t.num_rows], pa.int64()),
                         "null_text": pa.array([null_text], pa.int64()),
                         "empty_text": pa.array([empty_text], pa.int64()),
                         "null_lang": pa.array([null_lang], pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame([parts.sum().astype("int64")])


# -- range expectations (M8) --------------------------------------------------

def q12_range_violations(sf_dir: str):
    """Counts outside expected bounds (DESIGN.md:366-380)."""
    ds = _t(sf_dir, "lineitem", ["l_quantity", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        q_bad = pc.sum(pc.cast(pc.or_(pc.less(t["l_quantity"], 1.0),
                                      pc.greater(t["l_quantity"], 49.0)),
                               pa.int64())).as_py() or 0
        d_bad = pc.sum(pc.cast(pc.greater(t["l_discount"], 0.05), pa.int64())).as_py() or 0
        return pa.table({"qty_out_of_range": pa.array([q_bad], pa.int64()),
                         "disc_above_5pct": pa.array([d_bad], pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame([parts.sum().astype("int64")])


# -- sha256 invariant (M11) ---------------------------------------------------

def q13_sha256_documents(sf_dir: str):
    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"],
                         "text_sha256": pa.array(sha256_hex(t["text"].to_pylist()),
                                                 pa.string())})

    return ds.map_batches(fn, batch_format="pyarrow")


# -- per-group moments via mergeable sketches (A4) ----------------------------

def q17_lang_profiles(sf_dir: str):
    """Per-lang moments of n_chars from the engine's grouped profiles
    (``ProfileCheck`` through ``validate_dataset``), checked against SQL
    avg/stddev_pop/min/max."""
    from ..checks import EMPTY_GROUP
    from ..spec import TableSpec

    spec = TableSpec(name="documents", profile_columns=("n_chars",),
                     group_column="lang")
    res = _validate(_row_groups(sf_dir, "documents", ["lang", "n_chars"]), spec)
    out = []
    for (lang, _), p in res.profiles.items():
        if lang == "":
            continue  # the ungrouped profile
        m = p.moments
        out.append({"lang": "" if lang == EMPTY_GROUP else lang, "n_docs": m.n,
                    "avg_chars": round(m.mean, 4), "std_chars": round(m.std, 4),
                    "min_chars": int(m.min), "max_chars": int(m.max)})
    return pd.DataFrame(out)


# -- substring filter (M3/M5) -------------------------------------------------

def q20_text_contains(sf_dir: str):
    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        mask = pc.match_substring(pc.utf8_lower(pc.fill_null(t["text"], "")), "query")
        return pa.table({"doc_id": t.filter(mask)["doc_id"]})

    return ds.map_batches(fn, batch_format="pyarrow")


# -- timestamp formatting (M6 scalar fns) ------------------------------------

def q22_event_days(sf_dir: str):
    from ray.data.aggregate import Count

    ds = _t(sf_dir, "events", ["ts"])

    def fn(t: pa.Table) -> pa.Table:
        return pa.table({"day": pc.strftime(t["ts"], format="%Y-%m-%d")})

    return ds.map_batches(fn, batch_format="pyarrow").groupby("day").aggregate(
        Count(alias_name="n_events"))


# -- union fan-in (D1) ---------------------------------------------------------

def q23_union_counts(sf_dir: str):
    """Two source slices unioned then aggregated (news.py:321-347 fan-in)."""
    from ray.data.aggregate import Count

    a = _t(sf_dir, "orders", ["o_orderstatus", "o_totalprice"]).map_batches(
        lambda t: t.filter(pc.less(t["o_totalprice"], 100_000.0)),
        batch_format="pyarrow")
    b = _t(sf_dir, "orders", ["o_orderstatus", "o_totalprice"]).map_batches(
        lambda t: t.filter(pc.greater_equal(t["o_totalprice"], 100_000.0)),
        batch_format="pyarrow")
    out = a.union(b).groupby("o_orderstatus").aggregate(Count(alias_name="n"))
    return out


# -- in-code dict mapper (M9 country-code lookup shape) -------------------------

_SOURCE_TIER = {f"src{i}": ("low" if i < 10 else "high") for i in range(20)}


def q25_source_tiers(sf_dir: str):
    """Tiny in-code map applied per batch (news.py:92-99 country mapper)."""
    from ray.data.aggregate import Count

    def tiers(t: pa.Table) -> pa.Table:
        src = t["source"].to_pylist()
        return pa.table({"tier": pa.array(
            [_SOURCE_TIER.get(x, "unknown") for x in src], pa.string())})

    ds = _t(sf_dir, "documents", ["source"])
    return (ds.map_batches(tiers, batch_format="pyarrow")
            .groupby("tier").aggregate(Count(alias_name="n_docs")))


# -- the two halves of the events stream (A5/A6) ------------------------------

def _min_max(column: str, t: pa.Table) -> tuple:
    mm = pc.min_max(pc.cast(t[column], pa.int64()))
    return mm["min"].as_py(), mm["max"].as_py()


def _midpoint(sf_dir: str, name: str, column: str) -> int:
    """``(min + max) // 2`` of the ``name`` table's integer or timestamp
    ``column`` (a timestamp as its int64 count): a ``pc.min_max`` per row
    group in plain tasks, folded on the driver."""
    parts = [p for p in _row_groups(sf_dir, name, [column])(
        functools.partial(_min_max, column)) if p[0] is not None]
    return (min(lo for lo, _ in parts) + max(hi for _, hi in parts)) // 2


def _tag_half(column: str, mid: int, kernel, t: pa.Table) -> pa.Table:
    """``kernel`` over ``t`` with a ``half`` window column: 0 where
    ``column`` (as int64) is below ``mid``, 1 from ``mid`` on; a row whose
    ``column`` is null is in neither half."""
    half = pc.cast(pc.greater_equal(pc.cast(t[column], pa.int64()), mid), pa.int64())
    return kernel(t.append_column("half", half).filter(pc.is_valid(half)))


def _half_profiles(sf_dir: str, column: str, mid: int, edges: np.ndarray,
                   group_column: str | None = None):
    """The events' ``value`` profiles in the two halves of ``_tag_half``
    (per ``group_column`` value too, when given; histograms over
    ``edges``), from ``validate_dataset`` with ``window_column="half"``
    over every row group of the file: ``(spec, first, second)``."""
    from ..pipeline import validate_dataset
    from ..spec import TableSpec

    spec = TableSpec(name="events", profile_columns=("value",),
                     group_column=group_column)
    read = _row_groups(sf_dir, "events",
                       [column, "value", *([group_column] if group_column else [])])
    res = validate_dataset(lambda fn: read(functools.partial(_tag_half, column, mid, fn)),
                           spec, window_column="half", hist_edges={"value": edges})
    return spec, res[0].profiles, res[1].profiles


# -- drift half-split means, oracle-checked (A5/A6 companion) -----------------

def q30_drift_means(sf_dir: str):
    """Exact per-type means of `value` over the first/second half of the
    time range — the oracle-checkable core of nq_drift_events, split at
    the same ``_midpoint`` of ``ts``."""
    from ray.data.aggregate import Sum

    mid = _midpoint(sf_dir, "events", "ts")

    def tag(t: pa.Table) -> pa.Table:
        half = pc.cast(pc.greater_equal(pc.cast(t["ts"], pa.int64()), mid), pa.int64())
        one = pa.array(np.ones(t.num_rows, dtype=np.int64))
        return pa.table({"event_type": t["event_type"], "half": half,
                         "value": t["value"], "one": one})

    parts = (_t(sf_dir, "events", ["ts", "event_type", "value"])
             .map_batches(tag, batch_format="pyarrow")
             .groupby(["event_type", "half"])
             .aggregate(Sum("value", alias_name="s"), Sum("one", alias_name="n"))
             .to_pandas())
    piv = parts.pivot(index="event_type", columns="half")
    out = pd.DataFrame({
        "event_type": piv.index,
        "mean_first": (piv[("s", 0)] / piv[("n", 0)]).round(4).to_numpy(),
        "mean_second": (piv[("s", 1)] / piv[("n", 1)]).round(4).to_numpy(),
    }).reset_index(drop=True)
    return out


def q35_norm_fingerprints(sf_dir: str):
    """sha256 over NORMALIZED text (lower + whitespace collapse) — the
    SQL-expressible fingerprint twin of nq_fingerprints' rolling hash
    (VERDICT r2 #4: pull more of the text surface through the oracle)."""
    from ..checks import sha256_hex

    ds = _t(sf_dir, "documents", ["doc_id", "text"])

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        norm = (b["text"].fillna("").str.lower()
                .str.replace(r"\s+", " ", regex=True))
        return pd.DataFrame({"doc_id": b["doc_id"].to_numpy(),
                             "norm_sha256": sha256_hex(norm.tolist())})

    return ds.map_batches(fn, batch_format="pandas")


def q47_monthly_revenue(sf_dir: str):
    """Calendar (month) truncation + grouped aggregate — A1-family over
    a computed date key."""
    from ray.data.aggregate import Count, Sum

    ds = _t(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def add_month(t: pa.Table) -> pa.Table:
        m = pc.strftime(pc.cast(t["o_orderdate"], pa.timestamp("us")),
                        "%Y-%m")
        return pa.table({"month": m, "o_totalprice": t["o_totalprice"]})

    out = (ds.map_batches(add_month, batch_format="pyarrow")
           .groupby("month")
           .aggregate(Sum("o_totalprice", alias_name="revenue"),
                      Count(alias_name="n_orders"))).to_pandas()
    return _round_cols(out, {"revenue": ROUND})


def q51_json_props_stats(sf_dir: str):
    """Vectorized JSON field extraction (M4-family): pull the integer
    ``k`` out of the ``props`` JSON column with ONE Arrow RE2 kernel per
    batch (no per-row json.loads), then a grouped aggregate."""
    from ray.data.aggregate import Count, Sum

    ds = _t(sf_dir, "events", ["event_type", "props"])

    def extract(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(t["props"], r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        return pa.table({"event_type": t["event_type"], "k": k})

    return (ds.map_batches(extract, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Sum("k", alias_name="sum_k"),
                       Count(alias_name="n_events")))


_HIST_WIDTH, _HIST_BINS = 50.0, 10


def q83_value_histogram(sf_dir: str):
    """Per-group equi-width histogram (SURVEY A4's fixed-bin profile as
    an oracled query): counts of `value` per event_type in 10 bins of
    width 50, clamped at the top.  Partial counts combine inside one
    `map_batches` pass (np.bincount per key run), then a #keys×#bins
    groupby-sum — integer outputs, hash-stable."""
    from ray.data.aggregate import Sum

    ev = _t(sf_dir, "events", ["event_type", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame({"event_type": pd.Series([], dtype=object),
                                 "bin": pd.Series([], dtype=np.int64),
                                 "n": pd.Series([], dtype=np.int64)})
        bins = np.clip((b["value"].to_numpy() // _HIST_WIDTH).astype(np.int64),
                       0, _HIST_BINS - 1)
        g = (pd.DataFrame({"event_type": b["event_type"].to_numpy(),
                           "bin": bins})
             .groupby(["event_type", "bin"], sort=False).size()
             .rename("n").reset_index())
        # arrow-out: pandas blocks into the sort-based groupby exchange
        # are ~14x slower than arrow blocks (ROUND_NOTES r4)
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (ev.map_batches(partial, batch_format="pandas")
           .groupby(["event_type", "bin"])
           .aggregate(Sum("n", alias_name="n")))
    return out


def q100_conditional_counts(sf_dir: str):
    """Conditional aggregation (SQL FILTER/CASE family): several
    predicated counters in ONE pass over the stream — per event type:
    total, high-value, purchases-with-promo-props.  All predicates
    evaluate vectorized per batch into int64 partials; one tiny groupby
    sums them.  Integer outputs keep the oracle hash exact."""
    from ray.data.aggregate import Sum

    ev = _t(sf_dir, "events", ["event_type", "value", "props"])

    def flags(t: pa.Table) -> pa.Table:
        high = pc.cast(pc.greater(t["value"], 100.0), pa.int64())
        promo = pc.cast(pc.match_substring(t["props"], '"promo"'),
                        pa.int64())
        return pa.table({"event_type": t["event_type"],
                         "n": pa.array(np.ones(len(t), dtype=np.int64)),
                         "n_high": high, "n_promo": promo})

    out = (ev.map_batches(flags, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("n_high", alias_name="n_high"),
                      Sum("n_promo", alias_name="n_promo"))
           .to_pandas())
    for c in ("n", "n_high", "n_promo"):
        out[c] = out[c].astype("int64")
    return out


def q117_zone_map_stats(sf_dir: str):
    """Footer-only zone map (`ops/zonemap.footer_zone_map`): per-row-
    group min/max/count of orders.o_totalprice read from Parquet METADATA
    only on the driver, folded to table-level stats with
    ``pyarrow.compute``.  The oracle recomputes the same stats from the
    DATA — green means the footer statistics this engine prunes on are
    exact, which is the property pruning correctness rests on."""
    from ..ops.zonemap import footer_zone_map

    zm = footer_zone_map([f"{sf_dir}/orders.parquet"], "o_totalprice")
    return pd.DataFrame({"n_rows": [pc.sum(zm["n_rows"]).as_py()],
                         "vmin": [round(float(pc.min(zm["vmin"]).as_py()), ROUND)],
                         "vmax": [round(float(pc.max(zm["vmax"]).as_py()), ROUND)]})


def q118_pruned_range_scan(sf_dir: str):
    """Range aggregate over a zone-map-PRUNED read
    (`ops/zonemap.pruned_read`): only row groups whose footer [min,max]
    overlaps the price band are ever opened, each in its own plain task
    (the planted multi-row-group test asserts skipped groups are not
    read); surviving rows are filtered exactly in the task and
    aggregated on the driver.  Oracle: plain SQL WHERE."""
    from ..ops.zonemap import pruned_read

    lo, hi = 100_000.0, 200_000.0
    t = pruned_read([f"{sf_dir}/orders.parquet"], "o_totalprice", lo, hi,
                    columns=["o_orderkey", "o_totalprice"])
    return pd.DataFrame({
        "n_rows": [t.num_rows],
        "revenue": [round(float(pc.sum(t["o_totalprice"]).as_py() or 0.0), ROUND)]})


def _validate(map_rows, spec):
    """The engine's validation pass (``pipeline.validate_dataset``, the
    kernel ``run_validation`` runs) over the rows ``map_rows`` reads
    (``_row_groups``) as one window, without the table-wide uniqueness
    pass: its ``WindowResult``."""
    from ..pipeline import validate_dataset

    (res,) = validate_dataset(map_rows, spec).values()
    return res


def _expectation_counters(map_rows, spec) -> pd.DataFrame:
    """One (rule, n_violations) row per declared expectation: the counters
    of ``_validate`` without ``rows``.  The kernel's per-row-group counters
    are summed on the driver by ``pipeline.merge_findings``."""
    counters = [(k, n) for k, n in _validate(map_rows, spec).counters.items()
                if k != "rows"]
    return pd.DataFrame(counters, columns=["rule", "n_violations"])


def q127_accepted_values(sf_dir: str):
    """Accepted-values expectation (`checks.AcceptedValuesCheck`, GE
    expect_column_values_to_be_in_set): events whose event_type falls
    outside the declared domain, counted by the engine's
    ``validate_dataset`` — counters are per-batch integers that sum, so the
    reduce is exact at any scale."""
    from ..spec import ColumnSpec, TableSpec

    spec = TableSpec(name="events", columns=[
        ColumnSpec("event_type",
                   accepted_values=("click", "view", "purchase", "signup")),
    ])
    return _expectation_counters(
        _row_groups(sf_dir, "events", ["event_type"]), spec)


def q128_format_violations(sf_dir: str):
    """Format expectation (`checks.FormatCheck`): full-match RE2 patterns
    per column over documents — Arrow's RE2 kernel per batch, counter
    reduce, zero row materialization."""
    from ..spec import ColumnSpec, TableSpec

    spec = TableSpec(name="documents", columns=[
        ColumnSpec("source", pattern=r"src[0-9]"),
        ColumnSpec("lang", pattern=r"[a-z]{2}"),
    ])
    return _expectation_counters(
        _row_groups(sf_dir, "documents", ["source", "lang"]), spec)


def q129_conditional_rules(sf_dir: str):
    """Cross-column conditional expectations (ColumnSpec.when): when
    lang='en' then n_chars >= 100; when lang='zh' then source must be a
    single-digit src — two rules on DIFFERENT target columns gated by a
    discriminator column, the DESIGN.md:366-380 per-type-condition shape."""
    from ..spec import ColumnSpec, TableSpec

    spec = TableSpec(name="documents", columns=[
        ColumnSpec("n_chars", min_value=100, when=("lang", "en")),
        ColumnSpec("source", pattern=r"src[0-9]", when=("lang", "zh")),
    ])
    return _expectation_counters(
        _row_groups(sf_dir, "documents", ["lang", "source", "n_chars"]), spec)


def _half_histograms(sf_dir: str):
    """Shared-edge histograms (fixed 25-unit bins over [0, 500]) of
    events.value in the first and second half of the event_id range, the
    first half being ``event_id <= (min + max) // 2`` as in the oracle:
    the profiles' histograms of ``_half_profiles``."""
    _spec, first, second = _half_profiles(
        sf_dir, "event_id", _midpoint(sf_dir, "events", "event_id") + 1,
        np.linspace(0.0, 500.0, 21))
    return first[("", "value")].hist, second[("", "value")].hist


def q139_value_drift_w1(sf_dir: str):
    """Wasserstein-1 distance between the first and second half of the
    events stream (`drift.wasserstein_from_hist` over the histograms of
    the engine's profiles, ``_half_histograms``): HOW FAR the value
    distribution moved, in value units — with fixed bin edges the binned
    W1 is Σ|CDF gap|·width, exactly expressible in SQL, so the sketch
    math is hash-checked."""
    from ..drift import wasserstein_from_hist

    a, b = _half_histograms(sf_dir)
    return pd.DataFrame({"n_a": [int(a.counts.sum())],
                         "n_b": [int(b.counts.sum())],
                         "w1": [round(wasserstein_from_hist(a, b), ROUND_F)]})


def q140_documents_expectations(sf_dir: str):
    """The flagship validation pass, oracled end-to-end: ALL declared
    expectation counters of DOCUMENTS_SPEC (completeness x4 + n_chars
    range) through ``validate_dataset`` — every counter is a
    per-batch integer that sums exactly, so the whole check family is
    hash-checkable against plain SQL counts."""
    from ..spec import DOCUMENTS_SPEC

    return _expectation_counters(
        _row_groups(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"]),
        DOCUMENTS_SPEC)


def q145_daily_psi_js(sf_dir: str):
    """The drift-scoring kernels hash-checked end to end: day-over-day
    PSI and Jensen-Shannon divergence of events.value
    (`drift.windowed_drift_series` — ONE pass of per-(day, bin) count
    partials over fixed shared edges, summed and scored on the driver from
    counts alone).  The SQL twin recomputes the clip-eps-renormalize
    probability algebra with window functions, so the exact PSI/JS math
    the validation engine alerts on is driver-attested, not just
    unit-tested."""
    from ..drift import windowed_drift_series

    ev = _t(sf_dir, "events", ["ts", "value"])
    edges = np.linspace(0.0, 500.0, 21)          # fixed 25-unit bins
    out = windowed_drift_series(ev, "ts", "value", edges, unit="day")
    out = out.dropna(subset=["psi"]).reset_index(drop=True)  # first day
    out["n"] = out["n"].astype("int64")
    out["n_nan"] = out["n_nan"].astype("int64")
    return _round_cols(out, {"psi": ROUND_F, "js": ROUND_F})


def q146_value_drift_ks(sf_dir: str):
    """Quantized-exact KS statistic between the first and second half of
    the events stream (`drift.ks_from_hist` over the histograms of the
    engine's profiles, ``_half_histograms``) — the tolerance-free scale
    path for the A5 two-sample test: max |CDF gap| at the shared bin edges
    is a deterministic function of the mergeable integer counts, so the
    driver hash checks the sketch math exactly."""
    from ..drift import ks_from_hist

    a, b = _half_histograms(sf_dir)
    return pd.DataFrame({"n_a": [int(a.counts.sum())],
                         "n_b": [int(b.counts.sum())],
                         "ks": [round(ks_from_hist(a, b), ROUND_F)]})


def q154_jsonl_roundtrip(sf_dir: str):
    """JSONL source end-to-end (`sources.read_any` / `register_source`
    §2.10): documents export to line-delimited JSON, read back through
    the format registry, and must answer the same per-lang aggregate as
    the parquet original — format ingestion never changes answers."""
    return _documents_roundtrip(sf_dir, "json")


def q155_csv_roundtrip(sf_dir: str):
    """CSV source end-to-end (`sources.read_any`, the q154 twin for the
    second text format): numeric columns must survive CSV type
    inference and reproduce the parquet aggregate.  Text is excluded
    (CSV quoting of free text is a serialization concern, not a reader
    one)."""
    return _documents_roundtrip(sf_dir, "csv")


def _documents_roundtrip(sf_dir: str, fmt: str):
    """The per-lang document count and ``n_chars`` sum of the documents
    table written as ``fmt`` ("json" or "csv") and read back through
    ``sources.read_any``."""
    import shutil
    import tempfile

    from ray.data.aggregate import Count, Sum

    from ..sources import read_any

    docs = _t(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    tmp = tempfile.mkdtemp(prefix=f"driftray_{fmt}_")
    try:
        getattr(docs, f"write_{fmt}")(tmp)
        out = (read_any(tmp, fmt=fmt)
               .groupby("lang")
               .aggregate(Count(alias_name="n_docs"),
                          Sum("n_chars", alias_name="total_chars"))
               .to_pandas().sort_values("lang", ignore_index=True))
        out["total_chars"] = out["total_chars"].astype("int64")
        return out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


ORACLE_SQL: dict[str, str] = {
    "q01_pricing_summary": f"""
        SELECT l_returnflag, l_linestatus,
               ROUND(SUM(l_quantity), {ROUND}) AS sum_qty,
               ROUND(SUM(l_extendedprice), {ROUND}) AS sum_base_price,
               ROUND(SUM(l_extendedprice * (1 - l_discount)), {ROUND}) AS sum_revenue,
               ROUND(AVG(l_quantity), {ROUND_F}) AS avg_qty,
               COUNT(*) AS count_order
        FROM lineitem GROUP BY l_returnflag, l_linestatus""",
    "q02_revenue_by_flag": f"""
        SELECT l_returnflag,
               ROUND(SUM(l_extendedprice * (1 - l_discount)), {ROUND}) AS revenue
        FROM lineitem WHERE l_shipdate < TIMESTAMP '1998-01-01'
        GROUP BY l_returnflag""",
    "q10_duplicate_users": """
        SELECT user_id, COUNT(*) AS cnt FROM events
        GROUP BY user_id HAVING COUNT(*) > 1""",
    "q11_completeness_documents": """
        SELECT COUNT(*) AS n_rows,
               COUNT(*) FILTER (WHERE text IS NULL) AS null_text,
               COUNT(*) FILTER (WHERE COALESCE(text, '') = '') AS empty_text,
               COUNT(*) FILTER (WHERE lang IS NULL) AS null_lang
        FROM documents""",
    "q12_range_violations": """
        SELECT COUNT(*) FILTER (WHERE l_quantity < 1 OR l_quantity > 49) AS qty_out_of_range,
               COUNT(*) FILTER (WHERE l_discount > 0.05) AS disc_above_5pct
        FROM lineitem""",
    "q13_sha256_documents": """
        SELECT doc_id, sha256(text) AS text_sha256 FROM documents""",
    "q17_lang_profiles": """
        SELECT lang, COUNT(*) AS n_docs,
               ROUND(AVG(n_chars), 4) AS avg_chars,
               ROUND(STDDEV_POP(n_chars), 4) AS std_chars,
               CAST(MIN(n_chars) AS BIGINT) AS min_chars,
               CAST(MAX(n_chars) AS BIGINT) AS max_chars
        FROM documents GROUP BY lang""",
    "q20_text_contains": """
        SELECT doc_id FROM documents WHERE LOWER(text) LIKE '%query%'""",
    "q22_event_days": """
        SELECT STRFTIME(ts, '%Y-%m-%d') AS day, COUNT(*) AS n_events
        FROM events GROUP BY 1""",
    "q23_union_counts": """
        SELECT o_orderstatus, COUNT(*) AS n FROM (
            SELECT o_orderstatus FROM orders WHERE o_totalprice < 100000
            UNION ALL
            SELECT o_orderstatus FROM orders WHERE o_totalprice >= 100000
        ) GROUP BY o_orderstatus""",
    "q25_source_tiers": """
        SELECT CASE WHEN CAST(SUBSTR(source, 4) AS INT) < 10
                    THEN 'low' ELSE 'high' END AS tier,
               COUNT(*) AS n_docs
        FROM documents GROUP BY 1""",
    "q30_drift_means": """
        WITH b AS (SELECT (epoch_us(MIN(ts)) + epoch_us(MAX(ts))) // 2 AS mid
                   FROM events)
        SELECT event_type,
               ROUND(AVG(value) FILTER (WHERE epoch_us(ts) <  (SELECT mid FROM b)), 4)
                   AS mean_first,
               ROUND(AVG(value) FILTER (WHERE epoch_us(ts) >= (SELECT mid FROM b)), 4)
                   AS mean_second
        FROM events GROUP BY event_type""",
    "q35_norm_fingerprints": r"""
        SELECT doc_id,
               SHA256(REGEXP_REPLACE(LOWER(COALESCE(text, '')),
                                     '\s+', ' ', 'g')) AS norm_sha256
        FROM documents""",
    "q47_monthly_revenue": f"""
        SELECT strftime(o_orderdate, '%Y-%m') AS month,
               ROUND(SUM(o_totalprice), {ROUND}) AS revenue,
               COUNT(*) AS n_orders
        FROM orders GROUP BY 1""",
    "q51_json_props_stats": """
        SELECT event_type,
               CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT))
                    AS BIGINT) AS sum_k,
               COUNT(*) AS n_events
        FROM events GROUP BY event_type""",
    "q83_value_histogram": f"""
        SELECT event_type,
               LEAST(GREATEST(CAST(FLOOR(value / {_HIST_WIDTH}) AS BIGINT),
                              0), {_HIST_BINS - 1}) AS bin,
               COUNT(*) AS n
        FROM events GROUP BY 1, 2""",
    "q100_conditional_counts": """
        SELECT event_type, COUNT(*) AS n,
               COUNT(*) FILTER (WHERE value > 100) AS n_high,
               COUNT(*) FILTER (WHERE props LIKE '%"promo"%') AS n_promo
        FROM events GROUP BY event_type""",
}

ORACLE_SQL["q117_zone_map_stats"] = f"""
    SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
           ROUND(MIN(o_totalprice), {ROUND}) AS vmin,
           ROUND(MAX(o_totalprice), {ROUND}) AS vmax
    FROM orders"""

ORACLE_SQL["q118_pruned_range_scan"] = f"""
    SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
           ROUND(COALESCE(SUM(o_totalprice), 0), {ROUND}) AS revenue
    FROM orders
    WHERE o_totalprice BETWEEN 100000.0 AND 200000.0"""

# the per-bin CDFs of the two halves of the events stream, over 25-wide
# bins of [0, 500]: q139 sums their gaps (W1), q146 takes the max (KS)
_HALF_CDF_GAPS = """
    WITH mm AS (SELECT (MIN(event_id) + MAX(event_id)) // 2 AS split
                FROM events),
    b AS (SELECT CASE WHEN event_id <= split THEN 'a' ELSE 'b' END AS half,
                 LEAST(CAST(FLOOR(value / 25.0) AS BIGINT), 19) AS bin
          FROM events CROSS JOIN mm
          WHERE value >= 0 AND value <= 500),
    c AS (SELECT half, bin, COUNT(*) AS n FROM b GROUP BY 1, 2),
    tot AS (SELECT half, SUM(n) AS t FROM c GROUP BY 1),
    grid AS (SELECT h.half, g.bin
             FROM (SELECT DISTINCT half FROM c) h
             CROSS JOIN (SELECT unnest(range(0, 20)) AS bin) g),
    f AS (SELECT grid.half, grid.bin, COALESCE(c.n, 0) AS n
          FROM grid LEFT JOIN c ON c.half = grid.half AND c.bin = grid.bin),
    cdf AS (SELECT f.half, f.bin,
                   SUM(f.n) OVER (PARTITION BY f.half ORDER BY f.bin) * 1.0
                   / (SELECT t FROM tot WHERE tot.half = f.half) AS p
            FROM f),
    gap AS (SELECT a.bin, ABS(a.p - b.p) AS g
            FROM cdf a JOIN cdf b ON a.bin = b.bin
            WHERE a.half = 'a' AND b.half = 'b')"""

ORACLE_SQL["q139_value_drift_w1"] = _HALF_CDF_GAPS + """
    SELECT CAST((SELECT t FROM tot WHERE half = 'a') AS BIGINT) AS n_a,
           CAST((SELECT t FROM tot WHERE half = 'b') AS BIGINT) AS n_b,
           ROUND(SUM(g) * 25.0, 6) AS w1
    FROM gap"""

ORACLE_SQL["q140_documents_expectations"] = """
    SELECT 'completeness|doc_id' AS rule,
           CAST(COALESCE(SUM(CASE WHEN doc_id IS NULL THEN 1 END), 0)
                AS BIGINT) AS n_violations
    FROM documents
    UNION ALL
    SELECT 'completeness|lang',
           CAST(COALESCE(SUM(CASE WHEN lang IS NULL OR lang = '' THEN 1
                END), 0) AS BIGINT)
    FROM documents
    UNION ALL
    SELECT 'completeness|n_chars',
           CAST(COALESCE(SUM(CASE WHEN n_chars IS NULL THEN 1 END), 0)
                AS BIGINT)
    FROM documents
    UNION ALL
    SELECT 'completeness|text',
           CAST(COALESCE(SUM(CASE WHEN text IS NULL OR text = '' THEN 1
                END), 0) AS BIGINT)
    FROM documents
    UNION ALL
    SELECT 'range|n_chars',
           CAST(COALESCE(SUM(CASE WHEN n_chars IS NOT NULL
                     AND (n_chars < 0 OR n_chars > 10000000)
                THEN 1 END), 0) AS BIGINT)
    FROM documents"""

ORACLE_SQL["q146_value_drift_ks"] = _HALF_CDF_GAPS + """
    SELECT CAST((SELECT t FROM tot WHERE half = 'a') AS BIGINT) AS n_a,
           CAST((SELECT t FROM tot WHERE half = 'b') AS BIGINT) AS n_b,
           ROUND(MAX(g), 6) AS ks
    FROM gap"""

# searchsorted(edges, v, right) over edges = 0,25,...,500 == the
# clamped FLOOR(v/25)+1; eps-clip + renormalize mirrors
# drift.psi_from_counts / the JS mixture exactly.
ORACLE_SQL["q145_daily_psi_js"] = """
    WITH b AS (SELECT date_trunc('day', ts) AS w,
                      GREATEST(0, LEAST(21,
                          CAST(FLOOR(value / 25.0) AS BIGINT) + 1)) AS bin
               FROM events WHERE value IS NOT NULL),
    c AS (SELECT w, bin, CAST(COUNT(*) AS BIGINT) AS n
          FROM b GROUP BY w, bin),
    days AS (SELECT w, ROW_NUMBER() OVER (ORDER BY w) AS rk
             FROM (SELECT DISTINCT w FROM c)),
    grid AS (SELECT d.w, d.rk, g.bin
             FROM days d CROSS JOIN
                  (SELECT CAST(unnest(range(0, 22)) AS BIGINT) AS bin) g),
    f AS (SELECT grid.w, grid.rk, grid.bin, COALESCE(c.n, 0) AS n
          FROM grid LEFT JOIN c ON c.w = grid.w AND c.bin = grid.bin),
    p1 AS (SELECT w, rk, bin, n,
                  GREATEST(CAST(n AS DOUBLE)
                           / GREATEST(SUM(n) OVER (PARTITION BY w), 1),
                           1e-6) AS pc
           FROM f),
    p2 AS (SELECT w, rk, bin, n,
                  pc / SUM(pc) OVER (PARTITION BY w) AS p
           FROM p1),
    pair AS (SELECT cur.w, cur.bin, cur.n, cur.p AS q, prv.p AS p
             FROM p2 cur JOIN p2 prv
               ON prv.rk = cur.rk - 1 AND prv.bin = cur.bin)
    SELECT w AS "window",
           CAST(SUM(n) AS BIGINT) AS n,
           CAST(0 AS BIGINT) AS n_nan,
           ROUND(SUM((q - p) * LN(q / p)), 6) AS psi,
           ROUND(SUM(0.5 * p * LN(p / (0.5 * (p + q)))
                     + 0.5 * q * LN(q / (0.5 * (p + q)))), 6) AS js
    FROM pair GROUP BY w"""

ORACLE_SQL["q127_accepted_values"] = """
    SELECT 'accepted|event_type' AS rule,
           CAST(COALESCE(SUM(CASE WHEN event_type IS NOT NULL
                     AND event_type NOT IN ('click','view','purchase','signup')
                     THEN 1 END), 0) AS BIGINT) AS n_violations
    FROM events"""

ORACLE_SQL["q128_format_violations"] = """
    SELECT 'format|source' AS rule,
           CAST(COALESCE(SUM(CASE WHEN source IS NOT NULL
                     AND NOT regexp_matches(source, '^(?:src[0-9])$')
                     THEN 1 END), 0) AS BIGINT) AS n_violations
    FROM documents
    UNION ALL
    SELECT 'format|lang',
           CAST(COALESCE(SUM(CASE WHEN lang IS NOT NULL
                     AND NOT regexp_matches(lang, '^(?:[a-z]{2})$')
                     THEN 1 END), 0) AS BIGINT)
    FROM documents"""

ORACLE_SQL["q129_conditional_rules"] = """
    SELECT 'range|n_chars?lang=en' AS rule,
           CAST(COALESCE(SUM(CASE WHEN lang = 'en' AND n_chars < 100
                     THEN 1 END), 0) AS BIGINT) AS n_violations
    FROM documents
    UNION ALL
    SELECT 'format|source?lang=zh',
           CAST(COALESCE(SUM(CASE WHEN lang = 'zh' AND source IS NOT NULL
                     AND NOT regexp_matches(source, '^(?:src[0-9])$')
                     THEN 1 END), 0) AS BIGINT)
    FROM documents"""

ORACLE_SQL["q154_jsonl_roundtrip"] = """
    SELECT lang, COUNT(*) AS n_docs,
           CAST(SUM(n_chars) AS BIGINT) AS total_chars
    FROM documents GROUP BY lang ORDER BY lang"""

ORACLE_SQL["q155_csv_roundtrip"] = ORACLE_SQL["q154_jsonl_roundtrip"]


def q173_events_expectations(sf_dir: str):
    """The flagship validation pass over EVENTS (q140's documents twin):
    all declared expectation counters of EVENTS_SPEC (completeness x4 +
    the value range) through ``validate_dataset`` — integer
    counters that sum exactly, hash-checkable against SQL counts, so
    nq_validate_events' kernel path gets a driver-hashed signal."""
    from ..spec import EVENTS_SPEC

    return _expectation_counters(
        _row_groups(sf_dir, "events",
                    ["event_id", "ts", "user_id", "event_type", "value"]),
        EVENTS_SPEC)


def q189_bloom_point_lookup(sf_dir: str):
    """Per-row-group Bloom data skipping (`ops/zonemap.build_bloom_index`
    + `bloom_pruned_read`): documents re-staged as 8 parquet files (hash
    layout — footer min/max cannot prune doc_id point lookups), a Bloom
    filter built per row group (one plain task each, doc_id column
    only), then an IN-list probe that reads only the row groups whose
    filter may hold a probe, each in its own plain task.  Each task keeps
    only the probed values, so the result is bit-equal to the unpruned
    scan — Bloom false positives never escape — and the plain SQL
    IN-list is the oracle."""
    import glob as globmod
    import shutil
    import tempfile

    from ..ops.zonemap import bloom_pruned_read

    probes = [3, 17, 41, 1_000_000_000]  # last one provably absent
    docs = _t(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    tmp = tempfile.mkdtemp(prefix="q189_bloom_")
    try:
        docs.repartition(8).write_parquet(tmp)
        paths = sorted(globmod.glob(f"{tmp}/*.parquet"))
        out = bloom_pruned_read(paths, "doc_id", probes,
                                columns=["doc_id", "lang", "n_chars"]).to_pandas()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["n_chars"] = out["n_chars"].astype(np.int64)
    return out.sort_values("doc_id", ignore_index=True)


def q179_ks_exact(sf_dir: str):
    """FULLY-exact two-sample KS over events.value, click vs view
    (`drift.ks_exact_distributed`): one ``map_batches`` pass folds each
    block to (value, click count, view count) rows and the driver folds
    those — no binning, no digest tolerance.  The driver hashes the exact
    integer numerator max |cumA·n_b − cumB·n_a| (D = d_num/(n_a·n_b)),
    so the whole CDF algebra must be bit-correct; q146 remains the
    histogram-quantized scale path."""
    from ..drift import ks_exact_distributed

    ev = _t(sf_dir, "events", ["event_type", "value"])

    def tag(t: pa.Table) -> pa.Table:
        et = t["event_type"]
        return pa.table({
            "value": t["value"],
            "a": pc.cast(pc.equal(et, "click"), pa.int64()),
            "b": pc.cast(pc.equal(et, "view"), pa.int64())})

    r = ks_exact_distributed(ev.map_batches(tag, batch_format="pyarrow"),
                             "value", "a", "b")
    return pd.DataFrame({"n_a": [r["n_a"]], "n_b": [r["n_b"]],
                         "d_num": [r["d_num"]]})

ORACLE_SQL["q173_events_expectations"] = """
    SELECT 'completeness|event_id' AS rule,
           CAST(COALESCE(SUM(CASE WHEN event_id IS NULL THEN 1 END), 0)
                AS BIGINT) AS n_violations
    FROM events
    UNION ALL
    SELECT 'completeness|event_type',
           CAST(COALESCE(SUM(CASE WHEN event_type IS NULL
                     OR event_type = '' THEN 1 END), 0) AS BIGINT)
    FROM events
    UNION ALL
    SELECT 'completeness|ts',
           CAST(COALESCE(SUM(CASE WHEN ts IS NULL THEN 1 END), 0)
                AS BIGINT)
    FROM events
    UNION ALL
    SELECT 'completeness|user_id',
           CAST(COALESCE(SUM(CASE WHEN user_id IS NULL THEN 1 END), 0)
                AS BIGINT)
    FROM events
    UNION ALL
    SELECT 'range|value',
           CAST(COALESCE(SUM(CASE WHEN value IS NOT NULL
                     AND (value < -1e12 OR value > 1e12)
                THEN 1 END), 0) AS BIGINT)
    FROM events"""

# Exact two-sample KS: the statistic's numerator max |cumA*n_b - cumB*n_a|
# is an exact integer (windowed SUMs promote to HUGEINT in DuckDB — cast).
ORACLE_SQL["q179_ks_exact"] = """
    WITH v AS (SELECT value,
                      SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)
                          AS ca,
                      SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END)
                          AS cb
               FROM events WHERE value IS NOT NULL
               GROUP BY value
               HAVING ca > 0 OR cb > 0),
         t AS (SELECT SUM(ca) AS n_a, SUM(cb) AS n_b FROM v),
         c AS (SELECT SUM(ca) OVER (ORDER BY value) AS cum_a,
                      SUM(cb) OVER (ORDER BY value) AS cum_b
               FROM v)
    SELECT CAST(t.n_a AS BIGINT) AS n_a,
           CAST(t.n_b AS BIGINT) AS n_b,
           CAST(MAX(ABS(cum_a * t.n_b - cum_b * t.n_a)) AS BIGINT) AS d_num
    FROM c, t GROUP BY t.n_a, t.n_b"""

ORACLE_SQL["q189_bloom_point_lookup"] = """
    SELECT doc_id, lang, n_chars FROM documents
    WHERE doc_id IN (3, 17, 41, 1000000000)"""


SQL_QUERIES = {
    "q01_pricing_summary": q01_pricing_summary,
    "q02_revenue_by_flag": q02_revenue_by_flag,
    "q10_duplicate_users": q10_duplicate_users,
    "q11_completeness_documents": q11_completeness_documents,
    "q12_range_violations": q12_range_violations,
    "q13_sha256_documents": q13_sha256_documents,
    "q17_lang_profiles": q17_lang_profiles,
    "q20_text_contains": q20_text_contains,
    "q22_event_days": q22_event_days,
    "q23_union_counts": q23_union_counts,
    "q25_source_tiers": q25_source_tiers,
    "q30_drift_means": q30_drift_means,
    "q35_norm_fingerprints": q35_norm_fingerprints,
    "q47_monthly_revenue": q47_monthly_revenue,
    "q51_json_props_stats": q51_json_props_stats,
    "q83_value_histogram": q83_value_histogram,
    "q100_conditional_counts": q100_conditional_counts,
    "q117_zone_map_stats": q117_zone_map_stats,
    "q118_pruned_range_scan": q118_pruned_range_scan,
    "q127_accepted_values": q127_accepted_values,
    "q128_format_violations": q128_format_violations,
    "q129_conditional_rules": q129_conditional_rules,
    "q139_value_drift_w1": q139_value_drift_w1,
    "q140_documents_expectations": q140_documents_expectations,
    "q145_daily_psi_js": q145_daily_psi_js,
    "q146_value_drift_ks": q146_value_drift_ks,
    "q154_jsonl_roundtrip": q154_jsonl_roundtrip,
    "q155_csv_roundtrip": q155_csv_roundtrip,
    "q173_events_expectations": q173_events_expectations,
    "q179_ks_exact": q179_ks_exact,
    "q189_bloom_point_lookup": q189_bloom_point_lookup,
}


def nq_hll_distinct_users(sf_dir: str):
    """HLL cardinality per event_type (A7 scale path; exact twin is
    q19_distinct_users_per_type)."""
    from ..sketches import HLL, dumps, loads, merge_all

    ds = _t(sf_dir, "events", ["event_type", "user_id"])

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        rows = {"event_type": [], "blob": []}
        for et, grp in df.groupby("event_type"):
            rows["event_type"].append(et)
            rows["blob"].append(dumps(HLL(p=12).update(grp["user_id"].to_numpy())))
        return pa.table({"event_type": pa.array(rows["event_type"], pa.string()),
                         "blob": pa.array(rows["blob"], pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame([
        {"event_type": et,
         "n_users_approx": int(round(merge_all(map(loads, grp["blob"])).estimate()))}
        for et, grp in parts.groupby("event_type")])


def nq_daily_drift(sf_dir: str):
    """Day-over-day drift series for events.value (`windowed_drift_series`):
    one partial-count pass; the driver sums the bin counts (KB) and scores
    consecutive days' PSI/JS.  Tolerance oracle in
    tests/test_drift.py (exact vs a direct per-day computation)."""
    from ..drift import windowed_drift_series

    ev = _t(sf_dir, "events", ["ts", "value"])
    edges = np.linspace(0.0, 200.0, 32)
    out = windowed_drift_series(ev, "ts", "value", edges)
    out["psi"] = out["psi"].round(6)
    out["js"] = out["js"].round(6)
    return out


def nq_drift_events(sf_dir: str):
    """KS/PSI/JS of `value` between the first and second half of the time
    range, per event_type (A5/A6 over the events stream): the numeric rows
    of ``pipeline.drift_report`` with the first half's profiles
    (``_half_profiles`` split at the ``_midpoint`` of ``ts``) as the
    baseline, and the halves' means from the profiles' moments."""
    from ..checks import EMPTY_GROUP
    from ..pipeline import Baseline, drift_report

    spec, first, second = _half_profiles(
        sf_dir, "ts", _midpoint(sf_dir, "events", "ts"),
        np.linspace(0, 500, 33), group_column="event_type")
    out = []
    for r in drift_report(Baseline(first), second, spec):
        g = r["group"]
        if r["kind"] != "numeric" or g == "":
            continue  # the group shares and the ungrouped profile
        out.append({
            "event_type": "" if g == EMPTY_GROUP else g,
            "ks_stat": round(r["ks_stat"], 4),
            "psi": round(r["psi"], 4),
            "js": round(r["js"], 4),
            "mean_first": round(first[(g, "value")].moments.mean, 4),
            "mean_second": round(second[(g, "value")].moments.mean, 4),
        })
    return pd.DataFrame(out)


def nq_unusual_ratio_events(sf_dir: str):
    """The reference detector (sensor.py:160-194 semantics) replayed over the
    events stream ordered by event_id: unusual := value > 200 (~p97).  The
    (event_id, unusual) projection goes through ``sensor.detect_stream``,
    which sorts it into runs in map tasks and merges them on the driver."""
    from .sensor import detect_stream

    ds = _t(sf_dir, "events", ["event_id", "value"]).map_batches(
        lambda t: pa.table({"event_id": t["event_id"],
                            "unusual": pc.greater(t["value"], 200.0)}),
        batch_format="pyarrow")
    verdicts = detect_stream(ds, order_col="event_id")[""]
    return pd.DataFrame([{
        "window_index": v.window_index, "start_row": v.start_row,
        "end_row": v.end_row, "n_rows": v.n_rows,
        "unusual_count": v.unusual_count,
        "unusual_ratio": round(v.unusual_ratio, 6), "drift": v.drift,
    } for v in verdicts])


def _verdicts(sf_dir: str, spec) -> pd.DataFrame:
    """The verdict rows of ``validate_dataset`` over the ``spec.name``
    table, with the table-wide uniqueness counter of
    ``uniqueness_violations`` over the same rows."""
    from ..pipeline import uniqueness_violations, validate_dataset

    map_rows = _row_groups(sf_dir, spec.name)
    results = validate_dataset(map_rows, spec)
    if spec.unique_key:
        (res,) = results.values()
        _dup, extra, _winners = uniqueness_violations(map_rows, spec, res.key_hashes)
        res.counters["uniqueness|" + "|".join(spec.unique_key)] = extra
    cols = ["n_rows", "n_violations", "quality_score", "passed"]
    return pd.DataFrame([r.verdict_row() for r in results.values()])[cols]


def nq_validate_documents(sf_dir: str):
    """Flagship validation pass over the documents table: verdict rows."""
    from ..spec import DOCUMENTS_SPEC

    return _verdicts(sf_dir, DOCUMENTS_SPEC)


def nq_validate_events(sf_dir: str):
    """Flagship validation pass over the events table: verdict rows."""
    from ..spec import EVENTS_SPEC

    return _verdicts(sf_dir, EVENTS_SPEC)


NONSQL_QUERIES = {
    "nq_hll_distinct_users": nq_hll_distinct_users,
    "nq_daily_drift": nq_daily_drift,
    "nq_drift_events": nq_drift_events,
    "nq_unusual_ratio_events": nq_unusual_ratio_events,
    "nq_validate_documents": nq_validate_documents,
    "nq_validate_events": nq_validate_events,
}

ALL_QUERIES = {**SQL_QUERIES, **NONSQL_QUERIES}
