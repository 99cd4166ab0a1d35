"""Parquet zone maps: footer-only row-group statistics and pruned reads.

At 100 TB the cheapest scan is the one you never schedule: Parquet footers
already carry per-row-group min/max/count for every column, so an engine
can answer range predicates' *scheduling* question — which row groups can
possibly match — by reading a few KB of metadata per file instead of the
data itself.  `read_parquet(filter=...)` does this implicitly inside Ray;
these ops expose the mechanism as a first-class, testable surface:

* :func:`footer_zone_map` — the zone-map TABLE itself (one row per row
  group: file, row_group, n_rows, vmin, vmax, and with ``values`` the
  row group's distinct values), built on the driver by a serial walk
  over the files' footers.  ``pipeline.run_validation`` builds ONE per
  run over the window column with ``values`` and plans every read from
  it, selecting the row groups whose window ids meet the windows read.
  Useful on its own for data layout audits (is the table clustered on
  this column? what fraction of row groups would a given predicate
  prune?).  :func:`parquet_zone_map` builds the same table as a Ray
  Data map over the files; both run one per-file footer function.
* :func:`map_row_groups` — ``fn(row_group_table)`` as one plain Ray task
  per planned (file, row group), returning the (small) outputs: no Ray
  Data execution, for steps whose output is metadata-sized.
* :func:`read_row_groups` — one read task per row group, planned from
  the footers on the driver (no ``read_parquet`` planning pass).
* :func:`pruned_read` — a range scan that consults the zone map first and
  schedules read tasks ONLY for overlapping row groups.  The zone map is
  metadata-scale (rows = row groups, not data rows), so collecting it on
  the driver is the correct move — it is the same size as the task list
  any scheduler must hold.

Engine extension beyond the reference (which reads whole CSV/JSON feeds —
/root/reference/DESIGN.md has no columnar source); oracle-checked by
q117 (zone map vs DuckDB per-file aggregates) and q118 (pruned range scan
vs a plain SQL filter), plus a planted multi-row-group pruning test.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

__all__ = ["footer_zone_map", "parquet_zone_map", "map_row_groups",
           "row_groups_of", "read_row_groups", "pruned_read",
           "build_bloom_index", "bloom_pruned_read"]


def _zone_table(paths: list[str], col: str, values: bool,
                footers: dict | None = None) -> pa.Table:
    """The zone-map rows of ``paths``' footers (see :func:`parquet_zone_map`),
    in the order given: the one per-file footer walk behind both the
    driver zone map and the Ray Data one.  ``footers`` maps a path to its
    already-read ``pq.FileMetaData`` (``sources.read_footers``); a path
    it lacks has its footer read here."""
    files, rgs, ns, mins, maxs, vals, nulls = [], [], [], [], [], [], []
    ctype = pa.null()  # no file: an empty, null-typed zone map
    for path in paths:
        md = (footers or {}).get(path) or pq.read_metadata(path)
        # by dotted path: a struct field's leaf name (``meta.window_id``)
        # must not shadow the top-level column
        index = {md.schema.column(i).path: i for i in range(md.num_columns)}
        ci = index[col]
        # typed from the footer: a batch of files without statistics
        # would otherwise infer a ``null`` column
        ctype = md.schema.to_arrow_schema().field(col).type
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            st = rg.column(ci).statistics
            files.append(path)
            rgs.append(g)
            ns.append(rg.num_rows)
            has = st is not None and st.has_min_max
            mins.append(st.min if has else None)
            maxs.append(st.max if has else None)
            if not values:
                continue
            if has and st.min == st.max and st.has_null_count:
                vals.append([st.min])
                nulls.append(st.null_count)
            else:
                # reopened with its footer: only the column chunk is read
                with pq.ParquetFile(path, metadata=md) as pf:
                    v = pf.read_row_group(g, columns=[col])[col]
                vals.append(pc.unique(v.drop_null()).to_pylist())
                nulls.append(v.null_count)
    out = {"file": pa.array(files, pa.string()),
           "row_group": pa.array(rgs, pa.int64()),
           "n_rows": pa.array(ns, pa.int64()),
           "vmin": pa.array(mins, ctype),
           "vmax": pa.array(maxs, ctype)}
    if values:
        out["values"] = pa.array(vals, pa.list_(ctype))
        out["nulls"] = pa.array(nulls, pa.int64())
    return pa.table(out)


def footer_zone_map(paths: list[str], col: str, values: bool = False,
                    footers: dict | None = None) -> pd.DataFrame:
    """:func:`parquet_zone_map` built on the driver: one serial walk over
    the sorted ``paths``' footers, no Ray job.  A footer is a few KB, so
    for a run's own table this costs milliseconds where a Ray Data
    execution costs its start-up; ``footers`` (path → footer metadata)
    spares re-reading footers a caller already holds.  With ``values`` a
    row group whose statistics do not pin a single value has its ``col``
    chunk read here, on the driver."""
    return _zone_table(sorted(paths), col, values, footers).to_pandas()


def parquet_zone_map(paths: list[str], col: str,
                     values: bool = False) -> rd.Dataset:
    """Zone map of ``col`` across ``paths``: one row per row group with
    ``file, row_group, n_rows, vmin, vmax`` — computed from Parquet
    FOOTERS only (no data pages are read).

    Distributed over files (one map task per path batch); min/max carry
    the column's natural Arrow type.  Row groups written without
    statistics surface as null vmin/vmax (callers must treat null as
    "cannot prune").

    ``values=True`` adds ``values`` (the row group's distinct non-null
    values of ``col``) and ``nulls`` (its null count).  A row group whose
    statistics say min == max and count its nulls needs no data read;
    any other row group has that one column chunk read inside the same
    footer task.  On a table laid out one window per row group this
    answers "which windows exist?" from metadata alone."""
    items = [{"path": p} for p in sorted(paths)]
    return rd.from_items(items).map_batches(
        lambda t: _zone_table(t["path"].to_pylist(), col, values),
        batch_format="pyarrow")


@ray.remote
def _row_group_task(path: str, row_group: int, columns, fn):
    return fn(pq.ParquetFile(path).read_row_group(row_group, columns=columns))


def row_groups_of(paths: list[str]) -> list[tuple[str, int]]:
    """Every ``(file, row_group)`` of the sorted ``paths``, from their
    footers."""
    return [(p, g) for p in sorted(paths)
            for g in range(pq.ParquetFile(p).metadata.num_row_groups)]


def map_row_groups(row_groups: list[tuple[str, int]], fn,
                   columns: list[str] | None = None) -> list:
    """``fn(table)`` on ``columns`` of each planned ``(file, row_group)``,
    as ONE plain ``@ray.remote`` task per row group; returns the outputs
    in plan order.

    For steps whose output is small (key hashes, candidate rows, a
    metadata row): a plain task costs its own read and ``fn``, where a
    Ray Data execution adds its streaming executor's start-up.  Every
    output comes back to the driver, so ``fn`` should shrink its row
    group.  ``fn`` is put in the object store once and shared by the
    tasks; an exception it raises reaches the caller."""
    if not row_groups:
        return []
    fn_ref = ray.put(fn)
    return ray.get([_row_group_task.remote(f, int(g), columns, fn_ref)
                    for f, g in row_groups])


def read_row_groups(paths: list[str], columns: list[str] | None = None, *,
                    row_groups: list[tuple[str, int]] | None = None,
                    transform=None) -> rd.Dataset:
    """Read ``columns`` of Parquet ``paths`` with ONE read task per row
    group — the parquet-native parallel grain, planned from the footers
    on the driver with no ``read_parquet`` planning pass.

    ``row_groups`` restricts the read to explicit ``(file, row_group)``
    pairs (a pruned zone map's task list); by default every row group of
    every path is read.  ``transform`` (``pa.Table -> pa.Table``) runs on
    each row group inside its read task, e.g. an exact row filter.  With
    no row group to read the result is a typed empty dataset."""
    if row_groups is None:
        row_groups = row_groups_of(paths)
    items = [{"file": f, "row_group": int(g)} for f, g in row_groups]
    if not items:
        schema = pq.read_schema(sorted(paths)[0])
        if columns:
            schema = pa.schema([schema.field(c) for c in columns])
        return rd.from_arrow(schema.empty_table())
    # one row group per read task: block size == row-group size
    return (rd.from_items(items, override_num_blocks=len(items))
            .map_batches(partial(_read_groups, columns=columns,
                                 transform=transform),
                         batch_format="pyarrow", batch_size=1))


# The read and filter steps are module-level functions bound with
# ``functools.partial``: a task pickles them by reference, where a
# closure is pickled by value (cloudpickle then walks ``sys.modules``).


def _read_groups(t: pa.Table, columns, transform) -> pa.Table:
    """The row groups ``t`` lists (``file``, ``row_group``), each read and
    passed through ``transform``."""
    parts = []
    for f, g in zip(t["file"].to_pylist(), t["row_group"].to_pylist()):
        tbl = pq.ParquetFile(f).read_row_group(g, columns=columns)
        parts.append(tbl if transform is None else transform(tbl))
    return pa.concat_tables(parts)


def _exact_filter(tbl: pa.Table, col: str, lo, hi, members,
                  columns) -> pa.Table:
    """The rows of ``tbl`` whose ``col`` is in ``members`` (or, without
    members, in ``[lo, hi]``), projected to ``columns``.  A row group
    whose every row is kept is passed on as read, not copied."""
    v = tbl[col]
    if members is not None:
        mask = pc.is_in(v, value_set=members)
    else:
        mask = pc.and_(pc.greater_equal(v, lo), pc.less_equal(v, hi))
    mask = pc.fill_null(mask, False)
    if not pc.all(mask).as_py():
        tbl = tbl.filter(mask)
    return tbl if columns is None else tbl.select(columns)


def pruned_read(paths: list[str], col: str, lo, hi,
                columns: list[str] | None = None,
                exact: bool = True,
                zone_map: "pd.DataFrame | None" = None,
                value_set=None) -> rd.Dataset:
    """Range scan ``lo <= col <= hi`` that schedules read tasks ONLY for
    row groups whose footer [vmin, vmax] overlaps the predicate.

    Three steps: (1) the zone map (metadata-scale) is computed distributed
    and collected, and filtered to the overlapping row groups — it IS the
    task list; (2) :func:`read_row_groups` reads each surviving
    (file, row_group) in its own task; (3) with ``exact`` (default) each
    row group is filtered to the predicate inside that task (zone maps
    prove *possible* overlap, not row-level membership); a row group
    whose every row matches is passed on as read, neither filtered nor
    copied.  Statistics-less row groups are conservatively kept.

    ``zone_map`` accepts a precomputed ``parquet_zone_map(...).to_pandas()``
    frame so a caller issuing many pruned reads over the same directory
    (run_validation's chunked window passes) walks the footers once.
    ``value_set`` narrows ``exact`` filtering to an explicit member list
    (e.g. a non-contiguous pending-window chunk inside [lo, hi]).

    The unpruned fallback is exactly ``read_parquet(filter=...)``; this
    op exists to make the pruning observable (q118's test asserts
    non-overlapping row groups are never opened)."""
    zm = (parquet_zone_map(paths, col).to_pandas()
          if zone_map is None else zone_map)
    keep = zm["vmin"].isna() | ~((zm["vmax"] < lo) | (zm["vmin"] > hi))
    tasks = list(zm.loc[keep, ["file", "row_group"]].itertuples(index=False))
    if not exact or not tasks:
        return read_row_groups(paths, columns, row_groups=tasks)
    members = (pa.array(list(value_set)) if value_set is not None else None)
    # the filter column is read with the row group even when not projected
    read_cols = (None if columns is None
                 else list(dict.fromkeys([*columns, col])))
    return read_row_groups(paths, read_cols, row_groups=tasks,
                           transform=partial(_exact_filter, col=col, lo=lo,
                                             hi=hi, members=members,
                                             columns=columns))


def build_bloom_index(paths: list[str], col: str,
                      fpr: float = 1e-3) -> rd.Dataset:
    """Per-FILE Bloom index over ``col`` — the point-lookup complement of
    the zone map.  Footer min/max cannot prune an UNSORTED
    high-cardinality column (every file's [min, max] spans the domain);
    a per-file Bloom filter answers "could value v be in this file?"
    with no false negatives at ~10 bits/row for 1e-3 FPR — the same
    data-skipping move as Parquet's own optional bloom pages / Iceberg
    puffin blobs, surfaced as a first-class testable op.

    One map task per file (reads ONLY ``col``), each sized to its own
    row count.  Returns the index TABLE: ``(file, n_rows, n_bits, k,
    bits)`` — metadata-scale (one row per file), so collecting it on the
    driver is the correct move, exactly like the zone map."""
    from ..bloom import BloomFilter

    items = [{"path": p} for p in sorted(paths)]

    def per_file(t: pa.Table) -> pa.Table:
        files, ns, nb, ks, bits = [], [], [], [], []
        for path in t["path"].to_pylist():
            vals = pq.read_table(path, columns=[col])[col]
            arr = vals.to_numpy(zero_copy_only=False)
            bf = BloomFilter(max(len(arr), 1), fpr=fpr).add(arr)
            files.append(path)
            ns.append(len(arr))
            nb.append(bf.n_bits)
            ks.append(bf.k)
            bits.append(bf.bits.tobytes())
        return pa.table({"file": pa.array(files, pa.string()),
                         "n_rows": pa.array(ns, pa.int64()),
                         "n_bits": pa.array(nb, pa.int64()),
                         "k": pa.array(ks, pa.int64()),
                         "bits": pa.array(bits, pa.binary())})

    return (rd.from_items(items, override_num_blocks=max(len(items), 1))
            .map_batches(per_file, batch_format="pyarrow"))


def _bloom_keep_files(index: pd.DataFrame, values) -> list[str]:
    """Files whose Bloom filter reports ANY of ``values`` as maybe
    present (no false negatives: a file absent from this list provably
    holds none of the probed values)."""
    from ..bloom import BloomFilter

    vals = np.asarray(values)
    keep = []
    for row in index.itertuples(index=False):
        bf = BloomFilter.from_state(row.n_bits, row.k, row.bits)
        if bool(bf.contains(vals).any()):
            keep.append(row.file)
    return sorted(keep)


def bloom_pruned_read(paths: list[str], col: str, values,
                      columns: list[str] | None = None,
                      exact: bool = True,
                      index: "pd.DataFrame | None" = None,
                      fpr: float = 1e-3,
                      concurrency: int | None = None) -> rd.Dataset:
    """Point lookup ``col IN values`` that schedules read tasks ONLY for
    files whose Bloom index might contain one of the probed values.

    ``index`` accepts a precomputed ``build_bloom_index(...).to_pandas()``
    frame so repeated lookups over the same directory build the filters
    once (amortized like the zone map in run_validation).  With ``exact``
    (default) surviving files are filtered row-level — Bloom false
    positives never reach the result, so output equals the unpruned
    ``read_parquet + is_in`` scan bit-for-bit (q189's oracle).
    """
    idx = (build_bloom_index(paths, col, fpr=fpr).to_pandas()
           if index is None else index)
    keep = _bloom_keep_files(idx, values)
    if not keep:
        schema = pq.read_schema(sorted(paths)[0])
        if columns:
            schema = pa.schema([schema.field(c) for c in columns])
        return rd.from_arrow(schema.empty_table())
    member_arr = pa.array(list(values))
    read_cols = (None if columns is None
                 else list(dict.fromkeys(list(columns) + [col])))

    def filter_rows(t: pa.Table) -> pa.Table:
        if not exact:
            return t if columns is None else t.select(columns)
        mask = pc.fill_null(pc.is_in(t[col], value_set=member_arr), False)
        out = t.filter(mask)
        return out if columns is None else out.select(columns)

    return rd.read_parquet(keep, columns=read_cols,
                           concurrency=concurrency).map_batches(
        filter_rows, batch_format="pyarrow")
