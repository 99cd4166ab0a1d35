"""Source registry: pluggable per-format readers (SURVEY.md §2.10).

The reference fans out over whatever sources are configured
(``/root/reference/src/data_sources/web/news.py:321-336``; "make it modular
so that we could add redundant/fallback sources", ``DESIGN.md:135-137``).
The engine's version: a format → reader registry producing
``ray.data.Dataset``s, plus a ``read_any`` that dispatches on extension.
Adding a format = one ``@register_source`` function.
"""

from __future__ import annotations

import os
from collections.abc import Callable

import pyarrow as pa

import ray.data as rd

_READERS: dict[str, Callable[..., rd.Dataset]] = {}


def register_source(fmt: str):
    def deco(fn):
        _READERS[fmt] = fn
        return fn
    return deco


@register_source("parquet")
def read_parquet(path: str, columns=None, **kw) -> rd.Dataset:
    return rd.read_parquet(path, columns=columns, **kw)


@register_source("csv")
def read_csv(path: str, columns=None, **kw) -> rd.Dataset:
    ds = rd.read_csv(path, **kw)
    return ds.select_columns(columns) if columns else ds


@register_source("json")
def read_json(path: str, columns=None, **kw) -> rd.Dataset:
    ds = rd.read_json(path, **kw)
    return ds.select_columns(columns) if columns else ds


@register_source("text")
def read_text(path: str, columns=None, **kw) -> rd.Dataset:
    return rd.read_text(path, **kw)


@register_source("binary")
def read_binary(path: str, columns=None, **kw) -> rd.Dataset:
    return rd.read_binary_files(path, include_paths=True, **kw)


def formats() -> list[str]:
    return sorted(_READERS)


def read_any(path: str, fmt: str | None = None, **kw) -> rd.Dataset:
    """Dispatch on explicit format or file extension."""
    if fmt is None:
        ext = os.path.splitext(path)[1].lstrip(".").lower()
        fmt = {"pq": "parquet", "jsonl": "json", "txt": "text"}.get(ext, ext)
    if fmt not in _READERS:
        raise ValueError(f"no reader for format {fmt!r}; known: {formats()}")
    return _READERS[fmt](path, **kw)


def union_sources(datasets: list[rd.Dataset], limit_per_source: int | None = None) -> rd.Dataset:
    """Fan-in over redundant sources (D1: ``news.py:321-347``), optional
    per-source limit (O2) applied BEFORE the union."""
    if limit_per_source:
        datasets = [d.limit(limit_per_source) for d in datasets]
    out = datasets[0]
    for d in datasets[1:]:
        out = out.union(d)
    return out


def parquet_files(path: str) -> list[str]:
    """The parquet files of a file or directory path (a directory is
    walked recursively, in sorted order)."""
    files = []
    if os.path.isdir(path):
        for root, _dirs, names in os.walk(path):
            files.extend(os.path.join(root, n) for n in sorted(names)
                         if n.endswith(".parquet"))
    else:
        files = [path]
    if not files:
        raise FileNotFoundError(f"no parquet files under {path}")
    return files


def footer_schema_groups(path: str) -> dict[str, tuple[object, list[str]]]:
    """Group a parquet file/directory's files by their exact footer
    schema: ``{schema_key: (arrow_schema, [files])}``.  Footer reads
    only — no data scanned, same cost at any table size.  One entry
    means a schema-stable table; more means the table evolved."""
    import pyarrow.parquet as pq

    out: dict[str, tuple[object, list[str]]] = {}
    for f in parquet_files(path):
        sch = pq.ParquetFile(f).schema_arrow
        key = sch.to_string()
        if key in out:
            out[key][1].append(f)
        else:
            out[key] = (sch, [f])
    return out


def union_schema(schemas, columns=None) -> pa.Schema:
    """The name→type union of footer ``schemas`` in first-seen order,
    restricted to ``columns`` (in their order) when given; a requested
    column in no schema raises ``KeyError``.  A column that appears with
    CONFLICTING types raises ``TypeError``: silent coercion hides
    upstream schema drift — run the ``schema_drift`` preflight instead
    of papering over it."""
    types: dict[str, pa.DataType] = {}
    for sch in schemas:
        for f in sch:
            if columns is not None and f.name not in columns:
                continue
            have = types.setdefault(f.name, f.type)
            if have != f.type:
                raise TypeError(f"union_by_name: column {f.name!r} has "
                                f"conflicting types {have} vs {f.type}")
    if columns is None:
        return pa.schema(list(types.items()))
    missing = [c for c in columns if c not in types]
    if missing:
        raise KeyError(f"columns {missing} in no schema group")
    return pa.schema([(c, types[c]) for c in columns])


def pad_to_schema(t: pa.Table, schema: pa.Schema) -> pa.Table:
    """``t``'s columns in ``schema``'s order: a column ``t`` lacks becomes
    typed nulls, and a column outside ``schema`` is dropped."""
    return pa.table({f.name: t[f.name] if f.name in t.column_names
                     else pa.nulls(t.num_rows, f.type) for f in schema})


def union_by_name(dss: "list[rd.Dataset]", schema: pa.Schema) -> rd.Dataset:
    """UNION ALL BY NAME: concatenate Datasets whose schemas differ, each
    block padded to ``schema`` (a :func:`union_schema`) by
    :func:`pad_to_schema`.  Wide values should be plain
    ``pa.binary()``/``pa.string()`` columns (ROUND_NOTES: tensor extension
    columns do not survive unions with padded blocks)."""
    padded = [ds.map_batches(lambda t: pad_to_schema(t, schema),
                             batch_format="pyarrow") for ds in dss]
    return padded[0].union(*padded[1:])


def read_parquet_evolving(path: str, columns=None, groups=None,
                          **kw) -> rd.Dataset:
    """Read a directory whose parquet files were written across SCHEMA
    VERSIONS (columns added/removed over time) — the case a naive
    ``read_parquet`` breaks on or silently mis-aligns.

    Footer-only planning (:func:`footer_schema_groups`): each schema
    group reads as its own Dataset, and the groups combine with
    :func:`union_by_name` over the footers' :func:`union_schema` (typed
    null padding for columns a version lacks; conflicting types for the
    SAME column name raise ``TypeError`` rather than coerce, and a
    requested column in no group raises ``KeyError``, both before any
    read).  Optional ``columns`` prunes each group to the requested
    subset it actually has.  ``groups`` accepts a precomputed
    :func:`footer_schema_groups` result.
    """
    grouped = footer_schema_groups(path) if groups is None else groups
    keys = sorted(grouped)
    schema = union_schema([grouped[k][0] for k in keys], columns or None)
    parts = []
    for key in keys:
        sch, fs = grouped[key]
        cols = ([c for c in columns if c in sch.names]
                if columns else None)
        if cols is not None and not cols:
            # a group with NONE of the requested columns must still
            # contribute its rows (null-padded by union_by_name) — read
            # one anchor column to keep the row count; a zero-column
            # read would emit empty blocks that bypass the padding UDF
            cols = [sch.names[0]]
        parts.append(rd.read_parquet(fs, columns=cols, **kw))
    if len(parts) == 1:
        return parts[0]
    return union_by_name(parts, schema)
