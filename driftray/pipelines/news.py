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
* the seen-set is a checkpointed ``SeenKeysStore`` (a sorted key-hash
  run, persisted as Parquet), not an unbounded in-process set lost on
  restart (W5 fix).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..checks import hash_keys
from ..state import SeenKeysStore


def _first_rows(t: pa.Table, by: list[str], order_col: str,
                limit: int) -> pa.Table:
    """``t`` sorted by ``order_col``, cut to the first ``limit`` rows of
    each ``by`` group."""
    t = t.take(pc.sort_indices(t, [(order_col, "ascending")]))
    keys = t.select(by).to_pandas()
    rank = keys.groupby(by, sort=False, dropna=False).cumcount().to_numpy()
    return t.filter(pa.array(rank < limit))


def per_source_limit(ds: rd.Dataset, by: tuple[str, ...] = ("source",),
                     order_col: str = "seq", limit: int = 20) -> pa.Table:
    """Each source's (each ``by`` group's) first ``limit`` rows by arrival
    order (``news.py:26,105`` MAX_RESULTS_PER_SEARCH), as one table sorted
    by ``order_col``.

    One ``map_batches`` cuts every block to its groups' first ``limit``
    rows, and the driver cuts the union of those heads again.  That is
    exact: a group's first ``limit`` rows are among its blocks' first
    ``limit`` rows.  The driver holds at most blocks × groups × ``limit``
    rows.  An input without rows gives an empty table without columns."""
    by = list(by)
    heads = ds.map_batches(lambda t: _first_rows(t, by, order_col, limit),
                           batch_format="pyarrow", batch_size=None)
    parts = [t for t in ray.get(heads.to_arrow_refs()) if t.num_rows]
    if not parts:
        return pa.table({})
    return _first_rows(pa.concat_tables(parts), by, order_col, limit)


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
    return _finish_scan(per_source_limit(ds_scan, limit=per_source), store,
                        location=location, first_scan=first_scan)


def _finish_scan(t: pa.Table, store: SeenKeysStore, *, location: str | None,
                 first_scan: bool) -> tuple[pa.Table, SeenKeysStore]:
    """The driver half of :func:`news_scan`, on one scan's per-source
    heads ``t``: dedup, location and seen-key filters, newest-first sort."""
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
    """Replay of the monitoring loop over a multi-scan fixture.  ONE pass
    over the headlines cuts them to each (scan_id, source)'s first 20
    rows (:func:`per_source_limit`); the driver splits those heads
    by scan_id and finishes each scan as :func:`news_scan` does, the
    seen-state checkpointed between scans."""
    store = SeenKeysStore.load(state_path) if state_path else SeenKeysStore()
    heads = per_source_limit(headlines_ds, by=("scan_id", "source"))
    results = []
    for i, scan in enumerate(scans):
        t = (heads.filter(pc.equal(heads["scan_id"], scan))
             if heads.num_rows else heads)
        out, store = _finish_scan(t, store, location=location,
                                  first_scan=(i == 0 and len(store) == 0))
        if state_path:
            store.save(state_path)
        results.append(out)
    return results
