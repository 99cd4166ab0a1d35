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


def formats() -> list[str]:
    return sorted(_READERS)


def read_any(path: str, fmt: str | None = None, **kw) -> rd.Dataset:
    """Dispatch on explicit format or file extension."""
    if fmt is None:
        ext = os.path.splitext(path)[1].lstrip(".").lower()
        fmt = {"pq": "parquet", "jsonl": "json"}.get(ext, ext)
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


def read_footers(path: str) -> dict:
    """``{file: pq.FileMetaData}`` over a parquet file/directory's files,
    in :func:`parquet_files` order: each footer read once, so a run plans
    its schema groups, zone map and histogram edges from one walk."""
    import pyarrow.parquet as pq

    return {f: pq.read_metadata(f) for f in parquet_files(path)}


def footer_schema_groups(path: str, footers: dict | None = None,
                         ) -> dict[str, tuple[object, list[str]]]:
    """Group a parquet file/directory's files by their exact footer
    schema: ``{schema_key: (arrow_schema, [files])}``.  Footer reads
    only — no data scanned, same cost at any table size; ``footers``
    passes a :func:`read_footers` result in.  One entry means a
    schema-stable table; more means the table evolved."""
    if footers is None:
        footers = read_footers(path)
    out: dict[str, tuple[object, list[str]]] = {}
    for f, md in footers.items():
        sch = md.schema.to_arrow_schema()
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
                raise TypeError(f"union_schema: column {f.name!r} has "
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
