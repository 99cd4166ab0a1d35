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

import ray
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
        if path.lower().endswith(".warc.gz"):
            fmt = "warc"
        else:
            ext = os.path.splitext(path)[1].lstrip(".").lower()
            fmt = {"pq": "parquet", "jsonl": "json", "txt": "text",
                   "arrow": "ipc", "feather": "ipc"}.get(ext, ext)
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


def read_parquet_evolving(path: str, columns=None, groups=None,
                          **kw) -> rd.Dataset:
    """Read a directory whose parquet files were written across SCHEMA
    VERSIONS (columns added/removed over time) — the case a naive
    ``read_parquet`` breaks on or silently mis-aligns.

    Footer-only planning (:func:`footer_schema_groups`): each schema
    group reads as its own Dataset, and the groups combine with
    ``relational.union_by_name`` (typed null padding for columns a
    version lacks; conflicting types for the SAME column name raise
    loudly rather than coerce).  Optional ``columns`` prunes each group
    to the requested subset it actually has.  ``groups`` accepts a
    precomputed :func:`footer_schema_groups` result so a caller issuing
    many reads over the same directory (run_validation's chunked window
    passes) walks the footers once, not once per read.
    """
    from .ops.relational import union_by_name

    grouped = footer_schema_groups(path) if groups is None else groups
    groups = {k: fs for k, (_, fs) in grouped.items()}
    schemas = {k: sch for k, (sch, _) in grouped.items()}
    parts = []
    for key, fs in sorted(groups.items()):
        cols = ([c for c in columns if c in schemas[key].names]
                if columns else None)
        if cols is not None and not cols:
            # a group with NONE of the requested columns must still
            # contribute its rows (null-padded by union_by_name) — read
            # one anchor column to keep the row count; a zero-column
            # read would emit empty blocks that bypass the padding UDF
            cols = [schemas[key].names[0]]
        parts.append(rd.read_parquet(fs, columns=cols, **kw))
    out = parts[0] if len(parts) == 1 else union_by_name(parts)
    if columns:
        have = out.schema().names
        missing = [c for c in columns if c not in have]
        if missing:
            raise KeyError(f"columns {missing} in no schema group")
        out = out.select_columns(list(columns))
    return out


# ---------------------------------------------------------------------------
# WARC (ISO 28500) — the CommonCrawl shard format, THE standard container
# for web-scale text-pipeline input.  Dependency-free: records are parsed
# by walking Content-Length (the spec's only framing), `.warc.gz` decodes
# CommonCrawl's per-record gzip members via zlib member concatenation.
#
# Scale shape: one WARC shard = one read task (shards are the unit of
# parallelism in CommonCrawl — ~1 GB each, thousands per crawl), so
# `read_binary_files` over a shard directory parallelizes across shards
# and each record-parse is a single linear pass over its shard's bytes.
# ---------------------------------------------------------------------------

_WARC_FIELDS = ["warc_type", "record_id", "warc_date", "target_uri",
                "content_type", "warc_lang", "http_status", "payload"]


def warc_record_bytes(warc_type: str, payload: bytes,
                      target_uri: str | None = None,
                      record_id: str = "<urn:uuid:0>",
                      warc_date: str = "2024-01-01T00:00:00Z",
                      content_type: str = "application/octet-stream",
                      warc_lang: str | None = None) -> bytes:
    """Serialize ONE spec-conformant WARC record (writer side of the
    round-trip; tests and fixtures build shards from this)."""
    h = [f"WARC/1.0",
         f"WARC-Type: {warc_type}",
         f"WARC-Record-ID: {record_id}",
         f"WARC-Date: {warc_date}"]
    if target_uri is not None:
        h.append(f"WARC-Target-URI: {target_uri}")
    if warc_lang is not None:
        h.append(f"WARC-Identified-Content-Language: {warc_lang}")
    h += [f"Content-Type: {content_type}",
          f"Content-Length: {len(payload)}"]
    return ("\r\n".join(h) + "\r\n\r\n").encode() + payload + b"\r\n\r\n"


def write_warc(path: str, records: list[dict], gzip_members: bool = False):
    """Write records (kwargs dicts for :func:`warc_record_bytes`) as one
    WARC shard; ``gzip_members=True`` emits the CommonCrawl layout (each
    record its own gzip member, so range requests can start anywhere)."""
    import gzip

    with open(path, "wb") as f:
        for r in records:
            raw = warc_record_bytes(**r)
            f.write(gzip.compress(raw) if gzip_members else raw)


def parse_warc_bytes(data: bytes) -> list[dict]:
    """Parse one shard's bytes into record dicts — linear walk framed by
    Content-Length (never a regex over payloads, which may themselves
    contain 'WARC/1.0').  HTTP response payloads additionally split into
    status + body (the body is what text pipelines want)."""
    out = []
    pos = 0
    n = len(data)
    while pos < n:
        while pos < n and data[pos:pos + 1] in (b"\r", b"\n"):
            pos += 1
        if pos >= n:
            break
        if not data.startswith(b"WARC/", pos):
            raise ValueError(f"malformed WARC: no record header at {pos}")
        hdr_end = data.find(b"\r\n\r\n", pos)
        if hdr_end < 0:
            raise ValueError("malformed WARC: unterminated header block")
        headers = {}
        for line in data[pos:hdr_end].split(b"\r\n")[1:]:
            k, _, v = line.partition(b":")
            headers[k.strip().lower().decode()] = v.strip().decode(
                "utf-8", "replace")
        clen = int(headers["content-length"])
        payload = data[hdr_end + 4:hdr_end + 4 + clen]
        pos = hdr_end + 4 + clen
        status = None
        body = payload
        ctype = headers.get("content-type", "")
        if ctype.startswith("application/http") and payload[:5] == b"HTTP/":
            he = payload.find(b"\r\n\r\n")
            if he >= 0:
                sl = payload[:payload.find(b"\r\n")].split(b" ")
                status = int(sl[1]) if len(sl) > 1 and sl[1].isdigit() \
                    else None
                body = payload[he + 4:]
        out.append({
            "warc_type": headers.get("warc-type", ""),
            "record_id": headers.get("warc-record-id", ""),
            "warc_date": headers.get("warc-date", ""),
            "target_uri": headers.get("warc-target-uri"),
            "content_type": ctype,
            "warc_lang": headers.get("warc-identified-content-language"),
            "http_status": status,
            "payload": body})
    return out


def _gunzip_members(data: bytes) -> bytes:
    """Decompress a concatenation of gzip members (the CommonCrawl
    per-record layout) into one byte stream."""
    import zlib

    out = []
    while data:
        d = zlib.decompressobj(wbits=zlib.MAX_WBITS | 16)
        out.append(d.decompress(data))
        data = d.unused_data
    return b"".join(out)


@register_source("warc")
def read_warc(path: str, columns=None, warc_types: tuple = ("response",),
              **kw) -> rd.Dataset:
    """WARC shard(s) → Dataset of records.  ``warc_types`` prunes at the
    parse (text pipelines want responses, not request/metadata twins —
    2/3 of CommonCrawl records drop before leaving the read task)."""
    import pyarrow as pa

    files = rd.read_binary_files(path, include_paths=True, **kw)

    def parse(batch) -> "pa.Table":
        rows = []
        for raw in batch["bytes"]:
            raw = bytes(raw)
            if raw[:2] == b"\x1f\x8b":
                raw = _gunzip_members(raw)
            rows.extend(r for r in parse_warc_bytes(raw)
                        if not warc_types or r["warc_type"] in warc_types)
        return pa.table({
            "warc_type": pa.array([r["warc_type"] for r in rows],
                                  pa.string()),
            "record_id": pa.array([r["record_id"] for r in rows],
                                  pa.string()),
            "warc_date": pa.array([r["warc_date"] for r in rows],
                                  pa.string()),
            "target_uri": pa.array([r["target_uri"] for r in rows],
                                   pa.string()),
            "content_type": pa.array([r["content_type"] for r in rows],
                                     pa.string()),
            "warc_lang": pa.array([r["warc_lang"] for r in rows],
                                  pa.string()),
            "http_status": pa.array([r["http_status"] for r in rows],
                                    pa.int64()),
            "payload": pa.array([r["payload"] for r in rows],
                                pa.binary())})

    ds = files.map_batches(parse, batch_format="numpy")
    return ds.select_columns(columns) if columns else ds


# -- ORC and Arrow IPC: columnar formats beyond parquet ----------------------
#
# Both readers parallelize INSIDE files, not just across them: the driver
# lists files (cheap), a first map opens each footer and emits one row per
# stripe (ORC) / record batch (IPC), and a second map reads exactly that
# unit with column pruning.  A 100 GB ORC file with 400 stripes becomes
# 400 independent read tasks — the same split model read_parquet gets from
# row groups, so one giant file can never serialize the read.


def _list_files(path: str, suffixes: tuple[str, ...]) -> list[str]:
    if os.path.isfile(path):
        return [path]
    out = []
    for root, _dirs, names in os.walk(path):
        out.extend(os.path.join(root, n) for n in sorted(names)
                   if n.lower().endswith(suffixes))
    if not out:
        raise FileNotFoundError(f"no {suffixes} files under {path}")
    return out


def _one_block_per_unit(units: rd.Dataset, cap: int = 512,
                        target_bytes: int = 8 * 1024 * 1024,
                        target_rows: int = 100_000) -> rd.Dataset:
    """map_batches parallelism is per BLOCK: a units table that arrives as
    one block would serialize every stripe/batch read into one task,
    while one block PER unit over thousands of small files drowns the
    read in per-task overhead.  The units table is metadata-scale (one
    row per stripe/record batch, with ``approx_bytes`` and ``rows``
    estimates), so sizing it on the driver is cheap: repartition so each
    read task gets ~``target_bytes`` of input AND ~``target_rows`` rows
    (decode is CPU-bound, so row count matters as much as bytes),
    clamped to [1, min(#units, cap)].  Units of the same file sort
    adjacent so a task usually opens each file once."""
    import pyarrow.compute as pc

    t = pa.concat_tables(ray.get(units.to_arrow_refs()))
    n = t.num_rows
    if n == 0:
        return rd.from_arrow(t)
    total = pc.sum(t["approx_bytes"]).as_py() or 0
    rows = pc.sum(t["rows"]).as_py() or 0
    k = max(-(-total // target_bytes), -(-rows // target_rows))  # ceil
    k = int(max(1, min(n, cap, max(1, k))))
    return rd.from_arrow(t.sort_by("path")).repartition(k)


@register_source("orc")
def read_orc(path: str, columns=None,
             target_unit_bytes: int = 64 * 1024 * 1024,
             **kw) -> rd.Dataset:
    """ORC file/directory → Dataset; stripes are the split units,
    coalesced to ~``target_unit_bytes`` of input per read task."""
    import pyarrow as pa

    files = _list_files(path, (".orc",))

    def stripes(batch) -> "pa.Table":
        from pyarrow import orc
        ps, ss, bs, rs = [], [], [], []
        for p in batch["path"]:
            f = orc.ORCFile(str(p))
            n = f.nstripes
            per = os.path.getsize(str(p)) // max(1, n)
            rows = f.nrows // max(1, n)
            ps.extend([str(p)] * n)
            ss.extend(range(n))
            bs.extend([per] * n)
            rs.extend([rows] * n)
        return pa.table({"path": pa.array(ps, pa.string()),
                         "stripe": pa.array(ss, pa.int64()),
                         "approx_bytes": pa.array(bs, pa.int64()),
                         "rows": pa.array(rs, pa.int64())})

    def read_stripe(batch) -> "pa.Table":
        from pyarrow import orc
        parts, handle, hpath = [], None, None
        for p, s in zip(batch["path"], batch["stripe"]):
            if str(p) != hpath:                 # units arrive path-sorted
                hpath, handle = str(p), orc.ORCFile(str(p))
            b = handle.read_stripe(int(s), columns=columns)
            # read_stripe yields a RecordBatch; normalize to batches
            parts.extend([b] if isinstance(b, pa.RecordBatch)
                         else b.to_batches())
        return pa.Table.from_batches(parts)

    units = _one_block_per_unit(
        rd.from_items([{"path": p} for p in files])
        .map_batches(stripes, batch_format="numpy"),
        target_bytes=target_unit_bytes)
    return units.map_batches(read_stripe, batch_format="numpy",
                             batch_size=None, **kw)


@register_source("ipc")
def read_ipc(path: str, columns=None,
             target_unit_bytes: int = 64 * 1024 * 1024,
             **kw) -> rd.Dataset:
    """Arrow IPC/Feather file/directory → Dataset; record batches are
    the split units (the IPC file format supports random batch access),
    coalesced to ~``target_unit_bytes`` of input per read task."""
    import pyarrow as pa

    files = _list_files(path, (".arrow", ".ipc", ".feather"))

    def batches(batch) -> "pa.Table":
        ps, bs, zs, rs = [], [], [], []
        for p in batch["path"]:
            with pa.OSFile(str(p), "rb") as f:
                n = pa.ipc.open_file(f).num_record_batches
            per = os.path.getsize(str(p)) // max(1, n)
            # IPC is uncompressed on disk: bytes track memory, and rows
            # are not in the footer — approximate 8 B/cell
            ncols = 1
            with pa.OSFile(str(p), "rb") as f:
                ncols = max(1, len(pa.ipc.open_file(f).schema))
            ps.extend([str(p)] * n)
            bs.extend(range(n))
            zs.extend([per] * n)
            rs.extend([per // (8 * ncols)] * n)
        return pa.table({"path": pa.array(ps, pa.string()),
                         "batch": pa.array(bs, pa.int64()),
                         "approx_bytes": pa.array(zs, pa.int64()),
                         "rows": pa.array(rs, pa.int64())})

    def read_batch(batch) -> "pa.Table":
        tabs, reader, hpath, mm = [], None, None, None
        for p, i in zip(batch["path"], batch["batch"]):
            if str(p) != hpath:                 # units arrive path-sorted
                hpath = str(p)
                mm = pa.memory_map(hpath, "rb")
                reader = pa.ipc.open_file(mm)
            t = pa.Table.from_batches([reader.get_batch(int(i))])
            tabs.append(t.select(columns) if columns else t)
        return pa.concat_tables(tabs)

    units = _one_block_per_unit(
        rd.from_items([{"path": p} for p in files])
        .map_batches(batches, batch_format="numpy"),
        target_bytes=target_unit_bytes)
    return units.map_batches(read_batch, batch_format="numpy",
                             batch_size=None, **kw)


def _shard_name(t, prefix: str, ext: str) -> str:
    """Deterministic, collision-resistant shard file name from batch
    content (first/last row of the first column + row count) — stable
    across retries so a re-executed write task overwrites its own shard
    instead of duplicating it."""
    import hashlib

    col = t.column(0)
    probe = f"{t.num_rows}|{col[0]}|{col[-1]}" if t.num_rows else "empty"
    h = hashlib.md5(probe.encode()).hexdigest()[:16]
    return f"{prefix}-{h}.{ext}"


def write_orc(ds: rd.Dataset, out_dir: str,
              stripe_size: int | None = None) -> list[str]:
    """Distributed ORC sink: each block writes one ``.orc`` shard
    (content-hash named → idempotent under task retry).  Returns the
    shard paths from the collected manifest (file count ∝ blocks, tiny)."""
    import pyarrow as pa

    os.makedirs(out_dir, exist_ok=True)

    def write_shard(t: "pa.Table") -> "pa.Table":
        from pyarrow import orc
        if t.num_rows == 0:
            return pa.table({"shard": pa.array([], pa.string()),
                             "rows": pa.array([], pa.int64())})
        p = os.path.join(out_dir, _shard_name(t, "shard", "orc"))
        kw = {"stripe_size": stripe_size} if stripe_size else {}
        orc.write_table(t, p, **kw)
        return pa.table({"shard": [p], "rows": [t.num_rows]})

    man = ds.map_batches(write_shard, batch_format="pyarrow",
                         batch_size=None).to_pandas()
    # 0-row Dataset.to_pandas() drops all columns (ROUND_NOTES gotcha)
    return sorted(man["shard"].tolist()) if "shard" in man.columns else []


def write_ipc(ds: rd.Dataset, out_dir: str,
              max_chunk_rows: int = 65_536) -> list[str]:
    """Distributed Arrow IPC sink: one ``.arrow`` shard per block,
    chunked into ``max_chunk_rows`` record batches so readers get
    batch-level parallelism back."""
    import pyarrow as pa

    os.makedirs(out_dir, exist_ok=True)

    def write_shard(t: "pa.Table") -> "pa.Table":
        if t.num_rows == 0:
            return pa.table({"shard": pa.array([], pa.string()),
                             "rows": pa.array([], pa.int64())})
        p = os.path.join(out_dir, _shard_name(t, "shard", "arrow"))
        with pa.OSFile(p, "wb") as f, \
                pa.ipc.new_file(f, t.schema) as w:
            for b in t.to_batches(max_chunksize=max_chunk_rows):
                w.write_batch(b)
        return pa.table({"shard": [p], "rows": [t.num_rows]})

    man = ds.map_batches(write_shard, batch_format="pyarrow",
                         batch_size=None).to_pandas()
    # 0-row Dataset.to_pandas() drops all columns (ROUND_NOTES gotcha)
    return sorted(man["shard"].tolist()) if "shard" in man.columns else []
