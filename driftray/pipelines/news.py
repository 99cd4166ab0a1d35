"""The news-monitor pipeline shape (SURVEY.md §3.2).

Reference flow (``/root/reference/src/data_sources/web/news.py:476-602``):
per-source fetch (≤20 each) → per-source ``title|url`` dedup → cross-source
``title|source`` dedup → location substring filter → incremental seen-set
filter (first scan passes everything) → sort newest-first (string compare
on ``published_date`` with '' fallback for NULLs, ``news.py:583-592``).

Engine differences, pinned and documented:
* dedup is FIRST-wins by the explicit ``seq`` arrival-order column on BOTH
  dedup keys — the reference is internally inconsistent (first-wins at
  ``news.py:74-82``, last-wins dict overwrite at ``news.py:349-356``);
  SURVEY.md D3 pins first-wins by sorted order.
* the seen-set is a checkpointed ``SeenKeysStore`` (key-hash Parquet +
  Bloom), not an unbounded in-process set lost on restart (W5 fix).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..checks import hash_keys
from ..state import SeenKeysStore


def _first_rows(t: pa.Table, source_col: str, order_col: str,
                limit: int) -> pa.Table:
    """``t`` sorted by ``order_col``, cut to each source's first ``limit``
    rows."""
    t = t.take(pc.sort_indices(t, [(order_col, "ascending")]))
    src = t[source_col].to_pandas()
    rank = src.groupby(src, sort=False, dropna=False).cumcount().to_numpy()
    return t.filter(pa.array(rank < limit))


def per_source_limit(ds: rd.Dataset, source_col: str = "source",
                     order_col: str = "seq", limit: int = 20) -> pa.Table:
    """Each source's first ``limit`` rows by arrival order
    (``news.py:26,105`` MAX_RESULTS_PER_SEARCH), as one table sorted by
    ``order_col``.

    One ``map_batches`` cuts every block to its sources' first ``limit``
    rows, and the driver cuts the union of those heads again.  That is
    exact: a source's first ``limit`` rows are among its blocks' first
    ``limit`` rows.  The driver holds at most blocks × sources × ``limit``
    rows.  An input without rows gives an empty table without columns."""
    heads = ds.map_batches(
        lambda t: _first_rows(t, source_col, order_col, limit),
        batch_format="pyarrow", batch_size=None)
    parts = [t for t in ray.get(heads.to_arrow_refs()) if t.num_rows]
    if not parts:
        return pa.table({})
    return _first_rows(pa.concat_tables(parts), source_col, order_col, limit)


def drop_duplicates(t: pa.Table, key_cols: list[str]) -> pa.Table:
    """First-wins dedup on ``key_cols`` in table order (nulls compare
    equal)."""
    dup = t.select(key_cols).to_pandas().duplicated(keep="first").to_numpy()
    return t.filter(pa.array(~dup))


def location_filter(t: pa.Table, location: str) -> pa.Table:
    """Lowercase substring match on title OR description (``news.py:400-413``)."""
    loc = location.lower()
    title = pc.utf8_lower(pc.fill_null(t["title"], ""))
    desc = pc.utf8_lower(pc.fill_null(t["description"], ""))
    return t.filter(pc.or_(pc.match_substring(title, loc),
                           pc.match_substring(desc, loc)))


def sort_newest_first(t: pa.Table) -> pa.Table:
    """Stable string-compare sort desc on published_date, NULL → '' (sorts
    last), matching ``news.py:583-592``."""
    t = t.set_column(t.schema.get_field_index("published_date"),
                     "published_date", pc.fill_null(t["published_date"], ""))
    return t.take(pc.sort_indices(t, [("published_date", "descending")]))


def news_scan(ds_scan: rd.Dataset, store: SeenKeysStore, *,
              location: str | None = None, first_scan: bool = False,
              per_source: int = 20) -> tuple[pa.Table, SeenKeysStore]:
    """One micro-batch scan end-to-end; returns (fresh headlines table,
    updated store).  Everything after the per-source limit runs on the
    driver, on at most sources × ``per_source`` rows.  The caller
    persists the store between scans (``store.save(path)``) — that is the
    engine's checkpointed version of the reference's in-memory monitoring
    loop."""
    t = per_source_limit(ds_scan, limit=per_source)
    if t.num_rows == 0:
        return t, store
    t = drop_duplicates(t, ["title", "url"])
    t = drop_duplicates(t, ["title", "source"])
    if location:
        t = location_filter(t, location)
    if not first_scan and len(store):
        t = t.filter(pa.array(~store.contains(hash_keys(t, ["title", "url"]))))
    out = sort_newest_first(t)
    if out.num_rows:
        store.add(hash_keys(out, ["title", "url"]))
    return out, store


def run_monitor(headlines_ds: rd.Dataset, *, scans: list[int],
                state_path: str | None = None,
                location: str | None = None) -> list[pa.Table]:
    """Replay of the monitoring loop over a multi-scan fixture: one
    ``news_scan`` per scan_id, seen-state checkpointed between scans."""
    store = SeenKeysStore.load(state_path) if state_path else SeenKeysStore()
    results = []
    for i, scan in enumerate(scans):
        ds = headlines_ds.filter(
            lambda r, s=scan: r["scan_id"] == s)
        out, store = news_scan(ds, store, location=location,
                               first_scan=(i == 0 and len(store) == 0))
        if state_path:
            store.save(state_path)
        results.append(out)
    return results
