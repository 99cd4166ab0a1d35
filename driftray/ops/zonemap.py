"""Parquet zone maps: footer-only row-group statistics and planned reads.

Parquet footers carry per-row-group min/max/count for every column, so
which row groups can match a predicate is answered from a few KB of
metadata per file instead of the data itself:

* :func:`footer_zone_map` — the zone-map TABLE (one row per row group:
  file, row_group, n_rows, vmin, vmax, and with ``values`` the row
  group's distinct values), built on the driver from the footers.
  ``pipeline.run_validation`` builds ONE per run over the window column
  and plans every read from it.  :func:`parquet_zone_map` builds the
  same table as a Ray Data map over the files (q117).
* A PLAN is a list of ``(file, row_group)`` pairs: a pruned zone map's
  rows, or :func:`row_groups_of` a set of footers.
* :func:`read_row_group` is the one function that opens a planned row
  group: it reads the requested columns the file has, keeps the rows
  whose filter column is in a member set or in ``[lo, hi]``, and pads to
  a union schema.  :func:`map_row_groups` runs it as one plain Ray task
  per row group returning small outputs: every planned step of
  ``pipeline.run_validation`` (the kernel pass's findings, dimension key
  hashes, the uniqueness verify).
  :func:`read_row_groups` runs it over a plan as a Ray Data dataset, one
  read task per row group (q118 through :func:`pruned_read`, q189
  through :func:`bloom_pruned_read`).

Engine extension beyond the reference, which reads whole CSV/JSON feeds
and has no columnar source; oracle-checked by q117 (zone map vs DuckDB
aggregates), q118 (pruned range scan vs a SQL filter) and q189 (Bloom
point lookup vs an IN list), plus a planted multi-row-group pruning test.
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

from ..sources import pad_to_schema, union_schema

__all__ = ["footer_zone_map", "parquet_zone_map", "read_row_group",
           "row_groups_of", "map_row_groups", "read_row_groups", "pruned_read",
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


def read_row_group(file: str, row_group: int,
                   columns: list[str] | pa.Schema | None = None, *,
                   col: str | None = None, lo=None, hi=None,
                   members: pa.Array | None = None) -> pa.Table:
    """Row group ``row_group`` of ``file``: the one function that opens a
    planned row group, in a Ray Data read task and in a plain task alike.

    Reads the ``columns`` the file has (every column by default).  A list
    of names projects the result to them, and a name the file lacks
    raises ``KeyError``.  A ``pa.Schema`` (a union of footer schemas)
    pads the result to it: typed nulls for a column the file lacks
    (``sources.pad_to_schema``).  With ``col`` only the rows whose
    ``col`` is in ``members`` (or, without members, in ``[lo, hi]``) are
    kept; ``col`` is read for the filter even when not projected.  A row
    group whose every row is kept and whose columns are already the
    result's is passed on as read, not copied."""
    pf = pq.ParquetFile(file)
    schema = columns if isinstance(columns, pa.Schema) else None
    read = None
    if columns is not None:
        names = schema.names if schema is not None else list(columns)
        have = set(pf.schema_arrow.names)
        if schema is None and not have.issuperset(names):
            raise KeyError(f"columns {[c for c in names if c not in have]} "
                           f"not in {file}")
        read = [c for c in dict.fromkeys([*names, col]) if c in have]
    t = pf.read_row_group(row_group, columns=read)
    if col is not None:
        v = t[col]
        if members is not None:
            mask = pc.is_in(v, value_set=members)
        else:
            mask = pc.and_(pc.greater_equal(v, lo), pc.less_equal(v, hi))
        mask = pc.fill_null(mask, False)
        if not pc.all(mask).as_py():
            t = t.filter(mask)
    if schema is not None:
        if t.schema.names != schema.names or t.schema.types != schema.types:
            t = pad_to_schema(t, schema)
    elif columns is not None and t.column_names != names:
        t = t.select(names)
    return t


def row_groups_of(footers: dict) -> list[tuple[str, int]]:
    """The plan of every row group of ``footers`` (``{file: FileMetaData}``,
    as ``sources.read_footers`` returns), in their order."""
    return [(f, g) for f, md in footers.items() for g in range(md.num_row_groups)]


def _footers(paths: list[str], columns: list[str] | None) -> tuple[dict, pa.Schema]:
    """The footers of the sorted ``paths`` and their union schema of
    ``columns``."""
    footers = {p: pq.read_metadata(p) for p in sorted(paths)}
    return footers, union_schema(
        [md.schema.to_arrow_schema() for md in footers.values()], columns)


# The read-task step is a module-level function bound with
# ``functools.partial`` (as are the ``fn``s callers map): a task pickles
# it by reference, where a closure is pickled by value (cloudpickle then
# walks ``sys.modules``).


@ray.remote
def _row_group_task(file: str, row_group: int, read: dict, fn):
    return fn(read_row_group(file, row_group, **read))


def map_row_groups(row_groups: list[tuple[str, int]], fn,
                   columns: list[str] | pa.Schema | None = None,
                   **read) -> list:
    """``fn(read_row_group(file, row_group, columns, **read))`` for each
    planned ``(file, row_group)``, as ONE plain ``@ray.remote`` task per
    row group; returns the outputs in plan order.

    For steps whose output is small (the kernel pass's findings, key
    hashes, candidate rows, a metadata row): a plain task costs its own
    read and ``fn``, where a Ray Data execution adds its streaming
    executor's start-up.  Every output comes back to the driver, so
    ``fn`` should shrink its row group.  ``fn`` is put in the object
    store once and shared by the tasks; an exception it (or the read)
    raises reaches the caller."""
    if not row_groups:
        return []
    fn_ref = ray.put(fn)
    read = {"columns": columns, **read}
    return ray.get([_row_group_task.remote(f, int(g), read, fn_ref)
                    for f, g in row_groups])


def _read_item(item: pa.Table, **read) -> pa.Table:
    # batch_size=1: the batch is one planned (file, row_group)
    return read_row_group(item["file"][0].as_py(), item["row_group"][0].as_py(),
                          **read)


def read_row_groups(row_groups: list[tuple[str, int]],
                    columns: list[str] | pa.Schema | None = None,
                    **read) -> rd.Dataset:
    """``read_row_group(file, row_group, columns, **read)`` over each
    planned ``(file, row_group)`` as a Ray Data dataset: ONE read task
    per row group, the parquet-native parallel grain, with no
    ``read_parquet`` planning pass.  An empty plan gives an empty dataset
    typed by ``columns``, which must then be a schema."""
    if not row_groups:
        return rd.from_arrow(columns.empty_table())
    items = [{"file": f, "row_group": int(g)} for f, g in row_groups]
    # one row group per read task: block size == row-group size
    return (rd.from_items(items, override_num_blocks=len(items))
            .map_batches(partial(_read_item, columns=columns, **read),
                         batch_format="pyarrow", batch_size=1))


def pruned_read(paths: list[str], col: str, lo, hi,
                columns: list[str] | None = None) -> rd.Dataset:
    """Range scan ``lo <= col <= hi`` that schedules read tasks ONLY for
    row groups whose footer [vmin, vmax] overlaps the predicate.

    The plan is built on the driver from the footers of ``paths``
    (:func:`footer_zone_map`): the row groups whose [vmin, vmax]
    overlaps ``[lo, hi]``, statistics-less ones kept, read in the union
    schema of those footers' ``columns``.  :func:`read_row_groups` reads
    each planned row group in its own task and filters it to the
    predicate there, since zone maps prove *possible* overlap, not
    row-level membership.  A row group whose every row matches is passed
    on as read, neither filtered nor copied.

    The unpruned fallback is exactly ``read_parquet(filter=...)``; this
    op exists to make the pruning observable (q118's test asserts
    non-overlapping row groups are never opened)."""
    footers, schema = _footers(paths, columns)
    zm = footer_zone_map(paths, col, footers=footers)
    keep = zm["vmin"].isna() | ~((zm["vmax"] < lo) | (zm["vmin"] > hi))
    row_groups = list(zm.loc[keep, ["file", "row_group"]].itertuples(
        index=False, name=None))
    return read_row_groups(row_groups, schema, col=col, lo=lo, hi=hi)


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
                      index: pd.DataFrame | None = None,
                      fpr: float = 1e-3) -> rd.Dataset:
    """Point lookup ``col IN values`` that schedules read tasks ONLY for
    the row groups of files whose Bloom index might contain one of the
    probed values.

    ``index`` accepts a precomputed ``build_bloom_index(...).to_pandas()``
    frame so repeated lookups over the same directory build the filters
    once (amortized like the zone map in run_validation).  Each kept row
    group is filtered to ``values`` in its read task, so Bloom false
    positives never reach the result: the output equals the unpruned
    ``read_parquet + is_in`` scan bit-for-bit (q189's oracle), in the
    union schema of ``paths``' footers.
    """
    idx = (build_bloom_index(paths, col, fpr=fpr).to_pandas()
           if index is None else index)
    footers, schema = _footers(paths, columns)
    plan = row_groups_of({f: footers[f] for f in _bloom_keep_files(idx, values)})
    return read_row_groups(plan, schema, col=col, members=pa.array(list(values)))
