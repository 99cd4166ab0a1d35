"""Parquet zone maps: footer-only row-group statistics and planned reads.

Parquet footers carry per-row-group min/max/count for every column, so
which row groups can match a predicate is answered from a few KB of
metadata per file instead of the data itself:

* :func:`footer_zone_map` — the zone-map TABLE (one row per row group:
  file, row_group, n_rows, vmin, vmax, and with ``values`` the row
  group's distinct values), built on the driver from the footers.
  ``pipeline.run_validation`` builds ONE per run over the window column
  and plans every read from it; q117 folds one to table-level stats.
* A PLAN is a list of ``(file, row_group)`` pairs: a pruned zone map's
  rows, or :func:`row_groups_of` a set of footers.
* :func:`read_row_group` is the one function that opens a planned row
  group: it reads the requested columns the file has, keeps the rows
  whose filter column is in a member set or in ``[lo, hi]``, and pads to
  a union schema.  :func:`map_row_groups` runs it as one plain Ray task
  per row group, and is the only way a plan is read: every planned step
  of ``pipeline.run_validation`` (the kernel pass's findings, dimension
  key hashes, the uniqueness verify), the range scan of
  :func:`pruned_read` (q118), and the per-row-group Bloom filters of
  :func:`build_bloom_index` and the point lookup of
  :func:`bloom_pruned_read` (q189).

Engine extension beyond the reference, which reads whole CSV/JSON feeds
and has no columnar source; oracle-checked by q117 (zone map vs DuckDB
aggregates), q118 (pruned range scan vs a SQL filter) and q189 (Bloom
point lookup vs an IN list), plus a planted multi-row-group pruning test.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from ..sources import pad_to_schema, union_schema

__all__ = ["footer_zone_map", "parquet_zone_map", "read_row_group",
           "row_groups_of", "map_row_groups", "pruned_read",
           "build_bloom_index", "bloom_pruned_read"]


def footer_zone_map(paths: list[str], col: str, values: bool = False,
                    footers: dict | None = None) -> pa.Table:
    """Zone map of ``col`` across the sorted ``paths``: one row per row
    group with ``file, row_group, n_rows, vmin, vmax``, from the Parquet
    FOOTERS only, in one serial walk on the driver (no Ray job).  A
    footer is a few KB, so for a run's own table this costs
    milliseconds; ``footers`` maps a path to its already-read
    ``pq.FileMetaData`` (``sources.read_footers``), and a path it lacks
    has its footer read here.

    min/max carry the column's type from the footer.  Row groups written
    without statistics surface as null vmin/vmax (callers must treat
    null as "cannot prune").

    ``values=True`` adds ``values`` (the row group's distinct non-null
    values of ``col``) and ``nulls`` (its null count).  A row group whose
    statistics say min == max and count its nulls needs no data read;
    any other row group has that one column chunk read here, on the
    driver.  On a table laid out one window per row group this answers
    "which windows exist?" from metadata alone."""
    files, rgs, ns, mins, maxs, vals, nulls = [], [], [], [], [], [], []
    ctype = pa.null()  # no file: an empty, null-typed zone map
    for path in sorted(paths):
        md = (footers or {}).get(path) or pq.read_metadata(path)
        # by dotted path: a struct field's leaf name (``meta.window_id``)
        # must not shadow the top-level column
        index = {md.schema.column(i).path: i for i in range(md.num_columns)}
        ci = index[col]
        # typed from the footer: a file without statistics would
        # otherwise infer a ``null`` column
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


# The benchmark's tracer (``perfbench/tracing.TRACED``) patches this name,
# which is its only reason to exist; the engine calls ``footer_zone_map``.
parquet_zone_map = footer_zone_map


def read_row_group(file: str, row_group: int,
                   columns: list[str] | pa.Schema | None = None, *,
                   col: str | None = None, lo=None, hi=None,
                   members: pa.Array | None = None) -> pa.Table:
    """Row group ``row_group`` of ``file``: the one function that opens a
    planned row group, in the plain task that reads it.

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


# The task step and the ``fn``s below are module-level functions bound
# with ``functools.partial`` (as are the ``fn``s callers map): a task
# pickles them by reference, where a closure is pickled by value
# (cloudpickle then walks ``sys.modules``).


@ray.remote
def _row_group_task(file: str, row_group: int, read: dict, fn):
    return fn(read_row_group(file, row_group, **read))


def map_row_groups(row_groups: list[tuple[str, int]], fn,
                   columns: list[str] | pa.Schema | None = None,
                   **read) -> list:
    """``fn(read_row_group(file, row_group, columns, **read))`` for each
    planned ``(file, row_group)``, as ONE plain ``@ray.remote`` task per
    row group; returns the outputs in plan order.

    A plain task costs its own read and ``fn``, where a Ray Data
    execution adds its streaming executor's start-up.  Every output
    comes back to the driver, so ``fn`` should shrink its row group (the
    kernel pass's findings, key hashes, candidate rows, a Bloom filter)
    unless the caller wants the rows themselves.  ``fn`` is put in the
    object store once and shared by the tasks; an exception it (or the
    read) raises reaches the caller."""
    if not row_groups:
        return []
    fn_ref = ray.put(fn)
    read = {"columns": columns, **read}
    return ray.get([_row_group_task.remote(f, int(g), read, fn_ref)
                    for f, g in row_groups])


def _identity(t: pa.Table) -> pa.Table:
    return t


def _read_plan(row_groups: list[tuple[str, int]], schema: pa.Schema,
               **read) -> pa.Table:
    """The rows of a plan as one table in ``schema`` (an empty table of
    it when the plan is empty), read and filtered by
    :func:`map_row_groups`."""
    parts = map_row_groups(row_groups, _identity, schema, **read)
    return pa.concat_tables(parts) if parts else schema.empty_table()


def pruned_read(paths: list[str], col: str, lo, hi,
                columns: list[str] | None = None) -> pa.Table:
    """Range scan ``lo <= col <= hi`` that reads ONLY the row groups whose
    footer [vmin, vmax] overlaps the predicate.

    The plan is built on the driver from the footers of ``paths``
    (:func:`footer_zone_map`): the row groups whose [vmin, vmax]
    overlaps ``[lo, hi]``, statistics-less ones kept.  Each planned row
    group is read in its own plain task (:func:`map_row_groups`) and
    filtered to the predicate there, since zone maps prove *possible*
    overlap, not row-level membership; a row group whose every row
    matches is passed on as read.  Returns the rows in the union schema
    of the footers' ``columns``, in plan order.

    The unpruned equivalent is ``pq.read_table`` plus the same filter;
    this op exists to make the pruning observable (q118's test asserts
    non-overlapping row groups are never opened)."""
    footers, schema = _footers(paths, columns)
    zm = footer_zone_map(paths, col, footers=footers)
    plan = [(f, g) for f, g, vmin, vmax in zip(*(
                zm[c].to_pylist() for c in ("file", "row_group", "vmin", "vmax")))
            if vmin is None or not (vmax < lo or vmin > hi)]
    return _read_plan(plan, schema, col=col, lo=lo, hi=hi)


def _bloom_filter(t: pa.Table, col: str, fpr: float) -> tuple:
    """One row group's index entry: its row count and the state of a
    Bloom filter over its ``col`` values, sized to them."""
    from ..bloom import BloomFilter

    arr = t[col].to_numpy()
    bf = BloomFilter(max(len(arr), 1), fpr=fpr).add(arr)
    return len(arr), bf.n_bits, bf.k, bf.bits.tobytes()


def build_bloom_index(paths: list[str], col: str,
                      fpr: float = 1e-3) -> pa.Table:
    """Per-ROW-GROUP Bloom index over ``col`` — the point-lookup
    complement of the zone map.  Footer min/max cannot prune an UNSORTED
    high-cardinality column (every row group's [min, max] spans the
    domain); a Bloom filter answers "could value v be in this row
    group?" with no false negatives at ~10 bits/row for 1e-3 FPR — the
    grain and the data-skipping move of Parquet's own optional Bloom
    pages, surfaced as a first-class testable op.

    One plain task per row group of the sorted ``paths``
    (:func:`map_row_groups`, reading ONLY ``col``), each filter sized to
    its row group.  Returns the index TABLE: ``(file, row_group, n_rows,
    n_bits, k, bits)`` — metadata-scale (one row per row group), so it
    is held on the driver, like the zone map."""
    plan = row_groups_of(_footers(paths, [col])[0])
    rows = map_row_groups(plan, partial(_bloom_filter, col=col, fpr=fpr), [col])
    ns, nb, ks, bits = zip(*rows) if rows else ((), (), (), ())
    return pa.table({"file": pa.array([f for f, _ in plan], pa.string()),
                     "row_group": pa.array([g for _, g in plan], pa.int64()),
                     "n_rows": pa.array(ns, pa.int64()),
                     "n_bits": pa.array(nb, pa.int64()),
                     "k": pa.array(ks, pa.int64()),
                     "bits": pa.array(bits, pa.binary())})


def _bloom_plan(index: pa.Table, values) -> list[tuple[str, int]]:
    """The ``(file, row_group)`` pairs of ``index`` whose Bloom filter
    reports ANY of ``values`` as maybe present, in index order (no false
    negatives: a row group left out provably holds none of them)."""
    from ..bloom import BloomFilter

    vals = np.asarray(values)
    return [(f, g) for f, g, nb, k, bits in zip(*(
                index[c].to_pylist()
                for c in ("file", "row_group", "n_bits", "k", "bits")))
            if BloomFilter.from_state(nb, k, bits).contains(vals).any()]


def bloom_pruned_read(paths: list[str], col: str, values,
                      columns: list[str] | None = None,
                      index: pa.Table | None = None,
                      fpr: float = 1e-3) -> pa.Table:
    """Point lookup ``col IN values`` that reads ONLY the row groups whose
    Bloom filter might contain one of the probed values.

    ``index`` accepts a precomputed :func:`build_bloom_index` table, so
    repeated lookups over the same files build the filters once.  Each
    kept row group is read in its own plain task and filtered to
    ``values`` there, so Bloom false positives never reach the result:
    the output equals the unpruned ``pq.read_table`` + ``is_in`` scan
    (q189's oracle), in the union schema of ``paths``' footers.
    """
    idx = build_bloom_index(paths, col, fpr=fpr) if index is None else index
    _, schema = _footers(paths, columns)
    return _read_plan(_bloom_plan(idx, values), schema, col=col,
                      members=pa.array(list(values)))
