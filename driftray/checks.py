"""Vectorized per-batch check kernels (the map_batches hot path).

One pass over each Arrow batch produces a single narrow "findings" table
mixing three kinds of rows — violations, counters, and sketch partials
(pickled profiles, sorted key-hash runs) — so the raw input is read
exactly once per window.  Downstream stages split by ``kind``; everything
after the kernel is tiny relative to the input (violations are rare,
sketches are KB-sized, a key-hash run is 8 bytes per row).

Semantics sources:
* completeness — null OR empty-string for strings, null OR NaN for floats
  (``/root/reference/DESIGN.md:344-357``).
* range — inclusive bounds with optional row-condition, per-type conditions
  (``DESIGN.md:366-380``).
* sha256 invariant — hex sha256(content) == content_sha256 per row
  (BASELINE.json input_hint; SURVEY.md M11).
* profiles — mean/std/min/max/median/histogram per numeric column
  (``DESIGN.md:539-551``): one mergeable ``sketches.ColumnProfile`` row
  per (group, column) per window slice.  The reference's histogram has
  10 bins; ``run_validation`` takes 32 per column (the baseline's edges,
  else ``pipeline.infer_hist_edges``), and PSI and JS coarsen them to at
  most 8.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import sketches
from .bloom import BloomFilter
from .sketches import ColumnProfile
from .spec import TableSpec

FINDINGS_SCHEMA = pa.schema(
    [
        ("window", pa.int64()),     # window id (-1 = whole input, no window column)
        ("kind", pa.string()),      # violation | counter | sketch
        ("check", pa.string()),     # completeness | range | sha256 | rows | profile | ...
        ("column", pa.string()),
        ("group", pa.string()),     # group label of grouped sketches, '' = table-level
        ("row_ref", pa.string()),   # key of the violating row
        ("detail", pa.string()),    # human reason / sketch kind
        ("n", pa.int64()),          # counter value
        ("blob", pa.binary()),      # pickled sketch partial
    ]
)


def _empty_findings() -> dict[str, list]:
    return {name: [] for name in FINDINGS_SCHEMA.names if name != "window"}


def _append(out: dict, kind: str, check: str, column: str = "", group: str = "",
            row_ref: str = "", detail: str = "", n: int = 0, blob: bytes | None = None) -> None:
    out["kind"].append(kind)
    out["check"].append(check)
    out["column"].append(column)
    out["group"].append(group)
    out["row_ref"].append(row_ref)
    out["detail"].append(detail)
    out["n"].append(n)
    out["blob"].append(blob)


def findings_table(out: dict, window: int = -1) -> pa.Table:
    n = len(out["kind"])
    out = {"window": [int(window)] * n, **out}
    return pa.Table.from_pydict(out, schema=FINDINGS_SCHEMA)


def row_refs(batch: pa.Table, spec: TableSpec) -> np.ndarray:
    """Stable per-row reference string from the table's key columns."""
    key_cols = list(spec.unique_key or ())
    if not key_cols and spec.order_column:
        key_cols = [spec.order_column]
    if not key_cols:
        key_cols = [batch.column_names[0]]
    present = [c for c in key_cols if c in batch.column_names]
    if not present:
        return np.array([""] * batch.num_rows, dtype=object)
    return join_key(batch, present)


def join_key(batch: pa.Table, columns) -> np.ndarray:
    """'|'-joined string key over ``columns`` (vectorized).

    Nulls are filled PER COMPONENT (sentinel "<null>") so two rows that
    differ only in a non-null component keep distinct keys — matching SQL
    GROUP BY null semantics column-wise."""
    parts = [pc.fill_null(pc.cast(batch[c], pa.string()), "<null>") for c in columns]
    joined = parts[0] if len(parts) == 1 else pc.binary_join_element_wise(*parts, "|")
    return np.asarray(joined.to_pandas(), dtype=object)


# fixed sentinel hash for null values — chosen once so a null hashes the
# same in every batch and on both sides of a membership build/probe
_NULL_HASH = np.uint64(0x9E3779B97F4A7C15)


def _hash_column(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Null-STABLE vectorized uint64 hash of one Arrow column.

    Non-null values must hash identically whether or not the batch happens
    to contain nulls: the naive ``to_pandas()`` path promotes an int64
    column with any null to float64, silently changing every hash in that
    batch (missed duplicates, false referential violations).
    Here each type hashes from a fill_null'ed typed numpy array, then null
    positions are overwritten with a fixed sentinel."""
    from .sketches import hash64

    typ = col.type
    nulls = np.asarray(pc.is_null(col).to_numpy(zero_copy_only=False), dtype=bool)
    has_nulls = bool(nulls.any())
    if pa.types.is_unsigned_integer(typ):
        # uint64 ids routinely use the high bit — an int64 cast would raise
        vals = pc.fill_null(pc.cast(col, pa.uint64()), 0)
        h = hash64(np.asarray(vals.to_numpy(zero_copy_only=False),
                              dtype=np.uint64))
    elif pa.types.is_integer(typ) or pa.types.is_temporal(typ):
        # Arrow has no direct date32/time32 → int64 cast: route 32-bit
        # temporal storage through int32 first (days/seconds since epoch),
        # then widen — value-identical, and avoids ArrowNotImplementedError
        if pa.types.is_temporal(typ) and typ.bit_width == 32:
            col = pc.cast(col, pa.int32())
        vals = pc.fill_null(pc.cast(col, pa.int64()), 0)
        h = hash64(np.asarray(vals.to_numpy(zero_copy_only=False), dtype=np.int64))
    elif pa.types.is_floating(typ):
        vals = pc.fill_null(pc.cast(col, pa.float64()), 0.0)
        h = hash64(np.asarray(vals.to_numpy(zero_copy_only=False), dtype=np.float64))
    elif pa.types.is_boolean(typ):
        vals = pc.fill_null(col, False)
        h = hash64(np.asarray(vals.to_numpy(zero_copy_only=False), dtype=bool))
    else:
        s = pc.fill_null(pc.cast(col, pa.string()), "")
        h = hash64(np.asarray(s.to_pandas(), dtype=object))
    if has_nulls:
        if not h.flags.writeable:
            h = h.copy()
        h[nulls] = _NULL_HASH
    return h


def _fold_hashes(n_rows: int, column_hashes) -> np.ndarray:
    """Fold per-column uint64 hashes, in key order, with an FNV-style mix."""
    h = np.full(n_rows, np.uint64(0xCBF29CE484222325), dtype=np.uint64)
    for ch in column_hashes:
        h = (h * np.uint64(1099511628211)) ^ ch
    return h


def hash_keys(batch: pa.Table, columns) -> np.ndarray:
    """Combined uint64 hash over key columns WITHOUT building row strings —
    per-column null-stable vectorized hashing (``_hash_column``) folded
    with an FNV-style mix.  This is what shuffles in place of the raw key
    at scale (8 bytes/row)."""
    return _fold_hashes(batch.num_rows, (_hash_column(batch[c]) for c in columns))


def in_sorted(run: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which ``keys`` are in ``run``, a sorted array of distinct values:
    one ``np.searchsorted`` per key, the run neither copied nor re-sorted.

    The keys are compared in the run's dtype (a ``uint64``/``int64`` mix
    would promote to float64), so a key-hash run can be probed with
    either view of the same hashes."""
    keys = np.asarray(keys).astype(run.dtype, copy=False)
    if not len(run):
        return np.zeros(keys.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(run, keys), len(run) - 1)
    return run[pos] == keys


def _null_or_empty_mask(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """DESIGN.md:344-357 completeness semantics, vectorized."""
    mask = pc.is_null(col)
    typ = col.type
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        mask = pc.or_kleene(mask, pc.equal(col, ""))
    elif pa.types.is_floating(typ):
        mask = pc.or_kleene(mask, pc.is_nan(col))
    mask = pc.fill_null(mask, True)
    return np.asarray(mask.to_numpy(zero_copy_only=False), dtype=bool)



def sha256_hex(values: list[str]) -> list[str]:
    """Row-wise sha256 hex.  hashlib is C-speed; the Python loop only pays
    per-row call overhead (~0.5 us) vs ~us-scale hashing of KB contents."""
    out = []
    for s in values:
        if s is None:
            out.append(None)
        else:
            out.append(hashlib.sha256(s.encode("utf-8", "surrogatepass")).hexdigest())
    return out


def sha256_hex_arrow(col: pa.ChunkedArray | pa.Array) -> list[str]:
    """sha256 hex straight from the Arrow string buffers — hashes UTF-8
    bytes via zero-copy memoryview slices, never materializing Python str
    objects (the content column is the widest thing in the table; skipping
    the str round-trip halves the kernel's memory traffic)."""
    out: list = []
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    for chunk in chunks:
        if chunk.null_count:
            # rare path: fall back per-chunk when nulls are present
            out.extend(sha256_hex(chunk.to_pylist()))
            continue
        if pa.types.is_large_string(chunk.type):
            odt, width = np.int64, 8
        else:
            odt, width = np.int32, 4
        bufs = chunk.buffers()
        offsets = np.frombuffer(bufs[1], dtype=odt, count=len(chunk) + 1,
                                offset=chunk.offset * width)
        data = memoryview(bufs[2])
        sha = hashlib.sha256
        out.extend(sha(data[offsets[i]:offsets[i + 1]]).hexdigest()
                   for i in range(len(chunk)))
    return out


# ---------------------------------------------------------------------------
# pluggable check protocol + registry (SURVEY.md §2.10: adding a check = one
# class, mirroring the Sensor ABC + SENSOR_CLASSES registry pattern at
# /root/reference/src/data_sources/iot/sensor.py:10-32)
# ---------------------------------------------------------------------------


class CheckContext:
    """Per-(batch, window) state handed to every check's ``process``;
    nothing in it outlives the batch.

    ``emit_violations(mask, check, column, detail)`` records the exact
    counter and the ``budget`` least row refs of the violating rows (a
    bottom-k sample, which merges exactly; refs are built lazily, only
    for violating rows); ``emit_column(check, column, n, detail)`` a
    counter and, unless ``budget`` is 0, one ``"*"`` row for a finding
    about a whole column; ``append(kind, check, ...)`` writes a raw
    findings row (counters/sketches); ``hash_keys(columns)`` is
    ``checks.hash_keys`` over the batch, each column hashed once per
    context whichever checks key on it."""

    __slots__ = ("batch", "window", "spec", "out", "k", "_refs", "_col_hashes")

    def __init__(self, batch: pa.Table, window: int, spec: TableSpec,
                 out: dict, budget: int):
        self.batch = batch
        self.window = window
        self.spec = spec
        self.out = out
        self.k = budget
        self._refs = None
        self._col_hashes: dict[str, np.ndarray] = {}

    def hash_keys(self, columns) -> np.ndarray:
        memo = self._col_hashes
        for c in columns:
            if c not in memo:
                memo[c] = _hash_column(self.batch[c])
        return _fold_hashes(self.n_rows, (memo[c] for c in columns))

    @property
    def n_rows(self) -> int:
        return self.batch.num_rows

    def append(self, kind: str, check: str, **kw) -> None:
        _append(self.out, kind, check, **kw)

    def refs_at(self, idx: np.ndarray) -> np.ndarray:
        if self._refs is None:
            self._refs = row_refs(self.batch, self.spec)
        return self._refs[idx]

    def emit_violations(self, mask: np.ndarray, check: str, column: str,
                        detail: str) -> None:
        cnt = int(mask.sum())
        _append(self.out, "counter", check, column=column, n=cnt)
        if cnt == 0 or self.k <= 0:
            return
        refs = self.refs_at(np.flatnonzero(mask))
        if cnt > self.k:
            # Arrow orders strings by UTF-8 bytes, which is code-point
            # order: the order of the driver's sort
            refs = refs[pc.bottom_k_unstable(pa.array(refs, pa.string()),
                                             self.k).to_numpy()]
        for r in refs:
            _append(self.out, "violation", check, column=column,
                    row_ref=str(r), detail=detail)

    def emit_column(self, check: str, column: str, n: int, detail: str) -> None:
        _append(self.out, "counter", check, column=column, n=n)
        if self.k > 0:
            _append(self.out, "violation", check, column=column,
                    row_ref="*", detail=detail)


class BatchCheck:
    """Protocol for a pluggable per-batch check.  Subclass, implement
    ``process(ctx)``, and either register with ``@register_check("kind")``
    (so specs can name it in ``custom_checks``) or append an instance to a
    kernel's ``checks`` list directly.  ``__init__`` runs once, where the
    kernel is built (on the driver); each map task runs a copy of the
    built check — do expensive setup (regex compile, model load) there."""

    def process(self, ctx: CheckContext) -> None:  # pragma: no cover
        raise NotImplementedError


CHECK_REGISTRY: dict[str, type] = {}


def register_check(kind: str):
    """Class decorator: make a check constructible from
    ``TableSpec.custom_checks = ((kind, params), ...)`` — no engine edits."""

    def deco(cls):
        CHECK_REGISTRY[kind] = cls
        return cls

    return deco


class CompletenessCheck(BatchCheck):
    """M7 (DESIGN.md:344-357): null / '' / NaN per required column."""

    def __init__(self, spec: TableSpec):
        self.columns = [c.name for c in spec.required_columns]

    def process(self, ctx: CheckContext) -> None:
        for name in self.columns:
            if name not in ctx.batch.column_names:
                ctx.emit_column("completeness", name, ctx.n_rows,
                                "column missing from batch")
                continue
            mask = _null_or_empty_mask(ctx.batch[name])
            ctx.emit_violations(mask, "completeness", name, "null/empty/NaN")


class RangeCheck(BatchCheck):
    """M8 (DESIGN.md:366-380): inclusive bounds + optional row condition."""

    def __init__(self, spec: TableSpec):
        self.columns = spec.range_columns

    def process(self, ctx: CheckContext) -> None:
        batch = ctx.batch
        for cs in self.columns:
            if cs.name not in batch.column_names:
                continue
            col = batch[cs.name]
            viol = pa.array(np.zeros(ctx.n_rows, dtype=bool))
            if cs.min_value is not None:
                viol = pc.or_kleene(viol, pc.less(col, cs.min_value))
            if cs.max_value is not None:
                viol = pc.or_kleene(viol, pc.greater(col, cs.max_value))
            viol = pc.fill_null(viol, False)  # nulls are completeness's business
            mask = _when_mask(ctx, cs, np.asarray(viol.to_pandas(), dtype=bool))
            ctx.emit_violations(mask, "range", _rule_label(cs),
                                f"outside [{cs.min_value}, {cs.max_value}]")


def _when_mask(ctx: CheckContext, cs, mask: np.ndarray) -> np.ndarray:
    """``mask`` restricted to the rows that meet rule ``cs``'s row
    condition ``cs.when`` (conditional, cross-column rules); ``mask``
    itself when the rule is unconditional.

    When the gate column is ABSENT from the batch the rule cannot fire,
    but a silent all-False mask would make a misspelled gate column look
    like a permanently-passing rule — so a distinct ``config`` finding
    (counter 1 and a ``"*"`` row) is emitted before masking everything
    out.  Each batch emits it; ``pipeline.merge_findings`` takes the
    counter's max and keeps the row once, so a window reports 1 however
    its rows were split into batches."""
    if cs.when is None:
        return mask
    col, val = cs.when
    if col not in ctx.batch.column_names:
        ctx.emit_column("config", _rule_label(cs), 1,
                        f"when-column {col!r} missing from batch; "
                        "conditional rule disabled")
        return np.zeros_like(mask)
    eq = pc.fill_null(pc.equal(ctx.batch[col], val), False)
    return mask & np.asarray(eq.to_pandas(), dtype=bool)


def _rule_label(cs) -> str:
    """Counter label; conditional rules carry their condition so two rules
    on the same column don't merge counts."""
    if cs.when is None:
        return cs.name
    return f"{cs.name}?{cs.when[0]}={cs.when[1]}"


class AcceptedValuesCheck(BatchCheck):
    """Accepted-values expectation (the per-type value domains implied at
    DESIGN.md:366-380, GE's expect_column_values_to_be_in_set): non-null
    values must be in the declared set.  Nulls are completeness's business.
    Honors ``ColumnSpec.when`` row conditions (cross-column rules)."""

    def __init__(self, spec: TableSpec):
        self.columns = spec.accepted_columns
        # precompile value sets to Arrow once, where the kernel is built
        self._sets = [pa.array(list(c.accepted_values)) for c in self.columns]

    def process(self, ctx: CheckContext) -> None:
        batch = ctx.batch
        for cs, vset in zip(self.columns, self._sets):
            if cs.name not in batch.column_names:
                continue
            col = batch[cs.name]
            ok = pc.is_in(col, value_set=vset)
            viol = pc.and_kleene(pc.invert(ok), pc.is_valid(col))
            mask = _when_mask(ctx, cs, np.asarray(
                pc.fill_null(viol, False).to_pandas(), dtype=bool))
            ctx.emit_violations(mask, "accepted", _rule_label(cs),
                                f"not in accepted set ({len(vset)} values)")


class FormatCheck(BatchCheck):
    """Format expectation: the FULL non-null value must match the declared
    RE2 ``ColumnSpec.pattern`` (engine anchors it).  Vectorized via Arrow's
    RE2 kernel; nulls are completeness's business.  Honors ``when`` row
    conditions (cross-column rules)."""

    def __init__(self, spec: TableSpec):
        self.columns = spec.pattern_columns
        self._anchored = [f"^(?:{c.pattern})$" for c in self.columns]

    def process(self, ctx: CheckContext) -> None:
        batch = ctx.batch
        for cs, rx in zip(self.columns, self._anchored):
            if cs.name not in batch.column_names:
                continue
            col = batch[cs.name]
            ok = pc.match_substring_regex(col, rx)
            viol = pc.and_kleene(pc.invert(ok), pc.is_valid(col))
            mask = _when_mask(ctx, cs, np.asarray(
                pc.fill_null(viol, False).to_pandas(), dtype=bool))
            ctx.emit_violations(mask, "format", _rule_label(cs),
                                f"does not match /{cs.pattern}/")


class Sha256Check(BatchCheck):
    """M11 / BASELINE.json input_hint: sha256(content) == content_sha256.

    When neither column has a null and every expected value is 64 bytes,
    the digests compare as one fixed-width ``S64`` array against the
    expected column's data buffer; otherwise value by value."""

    def __init__(self, spec: TableSpec):
        self.hi = spec.hash_invariant

    def process(self, ctx: CheckContext) -> None:
        hi = self.hi
        batch = ctx.batch
        if hi is None or hi.content_column not in batch.column_names \
                or hi.hash_column not in batch.column_names:
            return
        content = batch[hi.content_column]
        expected = batch[hi.hash_column]
        actual = sha256_hex_arrow(content)
        digests = None if content.null_count else _hex_digests(expected)
        if digests is not None:
            mask = np.frombuffer("".join(actual).encode("ascii"),
                                 dtype="S64") != digests
        else:
            expected = expected.to_pylist()
            mask = np.fromiter((a != e for a, e in zip(actual, expected)),
                               dtype=bool, count=len(actual))
        ctx.emit_violations(mask, "sha256", hi.content_column,
                            "content hash mismatch")


def _hex_digests(col: pa.ChunkedArray | pa.Array) -> np.ndarray | None:
    """``col`` as one ``S64`` array when it is a string column with no
    null whose every value is 64 bytes long (a hex sha256): each chunk's
    values then lie back to back in its data buffer.  None otherwise."""
    if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
        return None
    if col.null_count or not len(col):
        return None
    if pc.any(pc.not_equal(pc.binary_length(col), 64)).as_py():
        return None
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    width = 8 if pa.types.is_large_string(col.type) else 4
    parts = []
    for chunk in chunks:
        if not len(chunk):
            continue
        bufs = chunk.buffers()
        start = int(np.frombuffer(bufs[1], dtype=f"<i{width}", count=1,
                                  offset=chunk.offset * width)[0])
        parts.append(np.frombuffer(bufs[2], dtype="S64", count=len(chunk),
                                   offset=start))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class ReferentialCheck(BatchCheck):
    """J2 / T4: probe each foreign key's broadcast membership — the sorted
    distinct uint64 hashes of the dimension keys (``in_sorted``) or a
    Bloom filter over them (no false negatives) — with the batch's
    8-byte key hashes, never per-row key strings."""

    def __init__(self, spec: TableSpec, membership: dict[int, object]):
        self.foreign_keys = spec.foreign_keys
        self.membership = membership

    def process(self, ctx: CheckContext) -> None:
        batch = ctx.batch
        for i, fk in enumerate(self.foreign_keys):
            member = self.membership.get(i)
            if member is None or not all(c in batch.column_names for c in fk.columns):
                continue
            keys = ctx.hash_keys(fk.columns)
            present = (member.contains(keys) if isinstance(member, BloomFilter)
                       else in_sorted(member, keys))
            ctx.emit_violations(~present, "referential", "|".join(fk.columns),
                                f"not in {fk.dim_table}({','.join(fk.dim_columns)})")


# The group label of rows whose group value is the empty string: the
# label ``""`` is the column's ungrouped (table-level) profile
EMPTY_GROUP = '""'


class ProfileCheck(BatchCheck):
    """A4: one mergeable ``ColumnProfile`` per (group, column) per window
    slice, emitted as one ``profile`` sketch row; ``hist_edges`` must be
    identical across windows so profiles merge and PSI/JS compare.

    Group ``""`` is the column's ungrouped profile over every row; a
    group value is labelled by its string, and the empty string by
    ``EMPTY_GROUP`` so its rows do not merge into the ungrouped profile
    (a value that is itself ``EMPTY_GROUP`` shares that label).  Rows
    whose group value is null are in the ungrouped profile only."""

    def __init__(self, spec: TableSpec, hist_edges: dict):
        self.columns = spec.profile_columns
        self.group_column = spec.group_column
        self.hist_edges = hist_edges

    def _emit(self, ctx: CheckContext, column: str, group: str,
              values: np.ndarray) -> None:
        profile = ColumnProfile.of(column, group, values, self.hist_edges.get(column))
        ctx.append("sketch", "profile", column=column, group=group,
                   blob=sketches.dumps(profile))

    def process(self, ctx: CheckContext) -> None:
        batch = ctx.batch
        for col_name in self.columns:
            if col_name not in batch.column_names:
                continue
            values = np.asarray(
                pc.cast(batch[col_name], pa.float64()).to_numpy(zero_copy_only=False),
                dtype=np.float64)
            self._emit(ctx, col_name, "", values)
            if self.group_column and self.group_column in batch.column_names:
                # dictionary-encode once: per-group masks become int compares
                dic = pc.dictionary_encode(
                    batch[self.group_column].combine_chunks()
                    if isinstance(batch[self.group_column], pa.ChunkedArray)
                    else batch[self.group_column])
                if isinstance(dic, pa.ChunkedArray):
                    dic = dic.combine_chunks()
                codes = np.asarray(dic.indices.to_numpy(zero_copy_only=False))
                labels = dic.dictionary.to_pylist()
                for code in np.argsort(np.array(labels, dtype=object)):
                    g = labels[code]
                    if g is None:
                        continue
                    self._emit(ctx, col_name, str(g) or EMPTY_GROUP,
                               values[codes == code])


class UniquenessHLLCheck(BatchCheck):
    """A7: the batch's sorted int64 key-hash run (8 bytes/row) as a
    ``key_hashes`` sketch row — the one source of key uniqueness.  The
    driver concatenates a window's runs, counts its distinct keys and
    persists the run; the exact table-wide duplicate check
    (``pipeline.uniqueness_violations``) sorts the runs of every
    validated window, so it never re-reads or shuffles the keys to find
    candidates.  It emits no HLL; the name stays because the benchmark's
    per-check timings are keyed by it."""

    def __init__(self, spec: TableSpec):
        self.key = spec.unique_key

    def process(self, ctx: CheckContext) -> None:
        if self.key and all(c in ctx.batch.column_names for c in self.key):
            h = ctx.hash_keys(self.key)
            ctx.append("sketch", "key_hashes", column="|".join(self.key),
                       detail="run", blob=np.sort(h.view(np.int64)).tobytes())


def build_checks(spec: TableSpec, hist_edges: dict,
                 membership: dict[int, object]) -> list[BatchCheck]:
    """Compile a spec into its check list: the built-ins plus any
    ``spec.custom_checks`` resolved through ``CHECK_REGISTRY``."""
    checks: list[BatchCheck] = [
        CompletenessCheck(spec),
        RangeCheck(spec),
        AcceptedValuesCheck(spec),
        FormatCheck(spec),
        Sha256Check(spec),
        ReferentialCheck(spec, membership),
        ProfileCheck(spec, hist_edges),
        UniquenessHLLCheck(spec),
    ]
    for kind, params in getattr(spec, "custom_checks", ()) or ():
        cls = CHECK_REGISTRY.get(kind)
        if cls is None:
            raise KeyError(f"unregistered check kind {kind!r}; "
                           f"known: {sorted(CHECK_REGISTRY)}")
        checks.append(cls(**params))
    return checks


# violation rows sampled per (window, check, column): the least by row ref
VIOLATION_SAMPLE = 10_000


class ValidationKernel:
    """Callable kernel, run once per row group in plain tasks.

    The spec is compiled into a list of ``BatchCheck`` instances in
    ``__init__``, once, where ``validate_dataset`` builds the kernel (on
    the driver); each map task runs a copy of the built kernel
    (SURVEY.md §2.10 / T-stages);
    ``__call__`` runs every check over each batch — fully vectorized
    except the sha256 row loop (hashlib, C-speed).  With a
    ``window_column`` each window's run of rows is a zero-copy slice of
    the batch: a window-ordered batch is neither copied nor filtered
    (only a window whose rows are not contiguous is gathered by a mask).

    A batch's findings depend on that batch alone.  Counters carry exact
    totals, and each check keeps at most ``cap`` (``VIOLATION_SAMPLE``)
    violation rows per (check, column), the least by row ref: a
    pathological window cannot blow up the findings table at 100 TB
    scale, and the samples of any split of a window merge exactly.

    ``hist_edges`` maps profile column → bin edges; edges must be identical
    across windows so histogram partials stay mergeable and PSI-comparable.
    A column without edges gets 10 bins over [0, 1]; ad-hoc checks come in
    through ``spec.custom_checks``."""

    cap = VIOLATION_SAMPLE

    def __init__(self, spec: TableSpec, hist_edges: dict | None = None,
                 membership: dict[int, object] | None = None,
                 window_column: str | None = None) -> None:
        self.spec = spec
        self.window_column = window_column
        # membership[i] = sorted uint64 key-hash run or BloomFilter for
        # spec.foreign_keys[i] (T4/J2); the row-group tasks get it with
        # the kernel, which ``ops.zonemap.map_row_groups`` puts in the
        # object store once per pass
        self.checks = build_checks(spec, hist_edges or {}, membership or {})

    def __call__(self, batch: pa.Table) -> pa.Table:
        wc = self.window_column
        if wc is None or wc not in batch.column_names:
            return self._process(batch, -1)
        # split by window value; a 0-row batch holds no window and yields
        # no findings.  The input is window-ordered, so each window is one
        # run of rows and gets a zero-copy slice; only a window whose rows
        # are not contiguous is gathered by a mask filter (a copy)
        w = batch[wc].to_numpy(zero_copy_only=False)
        if not len(w):
            return FINDINGS_SCHEMA.empty_table()
        starts = [0, *(np.flatnonzero(w[1:] != w[:-1]) + 1).tolist()]
        firsts = w[starts].tolist()
        if len(set(firsts)) == len(firsts):
            ends = [*starts[1:], len(w)]
            parts = [self._process(batch.slice(a, b - a), int(v))
                     for a, b, v in zip(starts, ends, firsts)]
        else:
            parts = [self._process(batch.filter(pa.array(w == v)), int(v))
                     for v in dict.fromkeys(firsts)]
        return pa.concat_tables(parts)

    def _process(self, batch: pa.Table, window: int) -> pa.Table:
        out = _empty_findings()
        _append(out, "counter", "rows", n=batch.num_rows)
        if batch.num_rows == 0:
            return findings_table(out, window)
        ctx = CheckContext(batch, window, self.spec, out, self.cap)
        for check in self.checks:
            check.process(ctx)
        return findings_table(out, window)
