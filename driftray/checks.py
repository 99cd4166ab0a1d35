"""Vectorized per-batch check kernels (the map_batches hot path).

One pass over each Arrow batch produces a single narrow "findings" table
mixing three kinds of rows — violations, counters, and pickled sketch
partials — so the raw input is read exactly once per window.  Downstream
stages split by ``kind``; everything after the kernel is tiny relative to
the input (violations are rare, sketches are KB-sized).

Semantics sources:
* completeness — null OR empty-string for strings, null OR NaN for floats
  (``/root/reference/DESIGN.md:344-357``).
* range — inclusive bounds with optional row-condition, per-type conditions
  (``DESIGN.md:366-380``).
* sha256 invariant — hex sha256(content) == content_sha256 per row
  (BASELINE.json input_hint; SURVEY.md M11).
* profiles — mean/std/min/max/median/10-bin histogram per numeric column
  (``DESIGN.md:539-551``) via mergeable sketches.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import sketches
from .sketches import HLL, Histogram, Moments, TDigest
from .spec import TableSpec

FINDINGS_SCHEMA = pa.schema(
    [
        ("window", pa.int64()),     # window id (-1 = whole input / table-level)
        ("kind", pa.string()),      # violation | counter | sketch
        ("check", pa.string()),     # completeness | range | sha256 | rows | profile | ...
        ("column", pa.string()),
        ("group", pa.string()),     # group value for grouped sketches, '' = table-level
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
    parts = [pc.fill_null(pc.cast(batch[c], pa.string()), "<null>")
             for c in key_cols if c in batch.column_names]
    if not parts:
        return np.array([""] * batch.num_rows, dtype=object)
    joined = parts[0] if len(parts) == 1 else pc.binary_join_element_wise(*parts, "|")
    return np.asarray(joined.to_pandas(), dtype=object)


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
    batch (missed duplicates, skewed HLLs, false referential violations).
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


def hash_keys(batch: pa.Table, columns) -> np.ndarray:
    """Combined uint64 hash over key columns WITHOUT building row strings —
    per-column null-stable vectorized hashing (``_hash_column``) folded
    with an FNV-style mix.  This is what shuffles in place of the raw key
    at scale (8 bytes/row)."""
    h = np.full(batch.num_rows, np.uint64(0xCBF29CE484222325), dtype=np.uint64)
    for c in columns:
        h = (h * np.uint64(1099511628211)) ^ _hash_column(batch[c])
    return h


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
    """Per-(batch, window) state handed to every check's ``process``.

    ``emit_violations(mask, check, column, detail)`` records the exact
    counter and up to the remaining budget of violation rows (row refs are
    built lazily, only for violating rows); ``append(kind, check, ...)``
    writes a raw findings row (counters/sketches)."""

    __slots__ = ("batch", "window", "spec", "out", "_budget", "_refs")

    def __init__(self, batch: pa.Table, window: int, spec: TableSpec,
                 out: dict, budget: int):
        self.batch = batch
        self.window = window
        self.spec = spec
        self.out = out
        self._budget = budget
        self._refs = None

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
        if cnt == 0 or self._budget <= 0:
            return
        idx = np.flatnonzero(mask)[: self._budget]
        self._budget -= idx.size
        for r in self.refs_at(idx):
            _append(self.out, "violation", check, column=column,
                    row_ref=str(r), detail=detail)


class BatchCheck:
    """Protocol for a pluggable per-batch check.  Subclass, implement
    ``process(ctx)``, and either register with ``@register_check("kind")``
    (so specs can name it in ``custom_checks``) or append an instance to a
    kernel's ``checks`` list directly.  ``__init__`` runs once per
    actor/task — do expensive setup (regex compile, model load) there."""

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
                ctx.append("counter", "completeness", column=name, n=ctx.n_rows)
                ctx.append("violation", "completeness", column=name,
                           row_ref="*", detail="column missing from batch")
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
            mask = np.asarray(viol.to_pandas(), dtype=bool)
            wm = _when_mask(batch, cs.when, ctx.n_rows, ctx,
                            _rule_label(cs), owner=self)
            if wm is not None:
                mask &= wm
            ctx.emit_violations(mask, "range", _rule_label(cs),
                                f"outside [{cs.min_value}, {cs.max_value}]")


def _when_mask(batch: pa.Table, when: tuple | None,
               n_rows: int, ctx: "CheckContext | None" = None,
               rule_label: str = "",
               owner: "BatchCheck | None" = None) -> np.ndarray | None:
    """Row-condition mask for conditional (cross-column) rules; None when
    the rule is unconditional.

    When the gate column is ABSENT from the batch the rule cannot fire,
    but a silent all-False mask would make a misspelled gate column look
    like a permanently-passing rule — so a distinct ``config`` finding is
    emitted before masking everything out.  The finding is emitted ONCE
    per rule per check actor (tracked on ``owner``), not per batch: a
    misconfiguration is a per-rule fact, and per-batch emission would
    make the counter batch-count-dependent and flood the findings table
    past the violation budget on large tables."""
    if when is None:
        return None
    col, val = when
    if col not in batch.column_names:
        if ctx is not None:
            warned = (owner.__dict__.setdefault("_cfg_warned", set())
                      if owner is not None else set())
            if rule_label not in warned:
                warned.add(rule_label)
                ctx.append("counter", "config", column=rule_label, n=1)
                if ctx._budget > 0:
                    ctx._budget -= 1
                    ctx.append("violation", "config", column=rule_label,
                               row_ref="*",
                               detail=f"when-column {col!r} missing from "
                                      "batch; conditional rule disabled")
        return np.zeros(n_rows, dtype=bool)
    eq = pc.fill_null(pc.equal(batch[col], val), False)
    return np.asarray(eq.to_pandas(), dtype=bool)


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
        # precompile value sets to Arrow once per actor
        self._sets = [pa.array(list(c.accepted_values)) for c in self.columns]

    def process(self, ctx: CheckContext) -> None:
        batch = ctx.batch
        for cs, vset in zip(self.columns, self._sets):
            if cs.name not in batch.column_names:
                continue
            col = batch[cs.name]
            ok = pc.is_in(col, value_set=vset)
            viol = pc.and_kleene(pc.invert(ok), pc.is_valid(col))
            mask = np.asarray(pc.fill_null(viol, False).to_pandas(), dtype=bool)
            wm = _when_mask(batch, cs.when, ctx.n_rows, ctx,
                            _rule_label(cs), owner=self)
            if wm is not None:
                mask &= wm
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
            mask = np.asarray(pc.fill_null(viol, False).to_pandas(), dtype=bool)
            wm = _when_mask(batch, cs.when, ctx.n_rows, ctx,
                            _rule_label(cs), owner=self)
            if wm is not None:
                mask &= wm
            ctx.emit_violations(mask, "format", _rule_label(cs),
                                f"does not match /{cs.pattern}/")


class Sha256Check(BatchCheck):
    """M11 / BASELINE.json input_hint: sha256(content) == content_sha256."""

    def __init__(self, spec: TableSpec):
        self.hi = spec.hash_invariant

    def process(self, ctx: CheckContext) -> None:
        hi = self.hi
        batch = ctx.batch
        if hi is None or hi.content_column not in batch.column_names \
                or hi.hash_column not in batch.column_names:
            return
        actual = sha256_hex_arrow(batch[hi.content_column])
        expected = batch[hi.hash_column].to_pylist()
        mask = np.fromiter((a != e for a, e in zip(actual, expected)),
                           dtype=bool, count=len(actual))
        ctx.emit_violations(mask, "sha256", hi.content_column,
                            "content hash mismatch")


class ReferentialCheck(BatchCheck):
    """J2 / T4: probe broadcast membership (set or Bloom — no false
    negatives) per foreign key; hashed memberships probe 8-byte key hashes,
    never per-row key strings."""

    def __init__(self, spec: TableSpec, membership: dict[int, object]):
        self.foreign_keys = spec.foreign_keys
        self.membership = membership
        # hashed exact sets precompile (once per actor) to a SORTED uint64
        # array so batch probes are one vectorized np.isin, not a ~1 µs/row
        # Python set loop
        self._hash_arrays: dict[int, np.ndarray] = {}
        for i, m in membership.items():
            if (isinstance(m, (set, frozenset)) and m
                    and isinstance(next(iter(m)), (int, np.integer))):
                self._hash_arrays[i] = np.sort(
                    np.array(list(m), dtype=np.uint64))

    def process(self, ctx: CheckContext) -> None:
        batch = ctx.batch
        for i, fk in enumerate(self.foreign_keys):
            member = self.membership.get(i)
            if member is None or not all(c in batch.column_names for c in fk.columns):
                continue
            hashed_arr = self._hash_arrays.get(i)
            if getattr(member, "hashed", False) or hashed_arr is not None:
                keys = hash_keys(batch, fk.columns)
            else:
                keys = join_key(batch, fk.columns)
            if hasattr(member, "contains"):  # BloomFilter
                present = member.contains(keys)
            elif hashed_arr is not None:
                present = np.isin(keys, hashed_arr)
            else:
                kl = keys.tolist()
                present = np.fromiter((k in member for k in kl), dtype=bool,
                                      count=len(kl))
            ctx.emit_violations(~present, "referential", "|".join(fk.columns),
                                f"not in {fk.dim_table}({','.join(fk.dim_columns)})")


class ProfileCheck(BatchCheck):
    """A4: mergeable moment/t-digest/histogram partials per (group, column);
    ``hist_edges`` must be identical across windows so partials merge and
    PSI/JS compare."""

    def __init__(self, spec: TableSpec, hist_edges: dict):
        self.columns = spec.profile_columns
        self.group_column = spec.group_column
        self.hist_edges = hist_edges

    def _emit(self, ctx: CheckContext, column: str, group: str,
              values: np.ndarray) -> None:
        mom = Moments().update(values)
        ctx.append("sketch", "profile", column=column, group=group,
                   detail="moments", blob=sketches.dumps(mom))
        td = TDigest().update(values)
        ctx.append("sketch", "profile", column=column, group=group,
                   detail="tdigest", blob=sketches.dumps(td))
        edges = self.hist_edges.get(column)
        hist = (Histogram.from_edges(edges) if edges is not None
                else Histogram(0.0, 1.0)).update(values)
        ctx.append("sketch", "profile", column=column, group=group,
                   detail="hist", blob=sketches.dumps(hist))

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
                    self._emit(ctx, col_name, str(g), values[codes == code])


class UniquenessHLLCheck(BatchCheck):
    """A7: mergeable HLL partial over the unique-key hashes, plus the
    batch's sorted int64 key-hash run (8 bytes/row) as a ``key_hashes``
    sketch row.  The driver concatenates a window's runs and persists them;
    the exact table-wide duplicate check (``pipeline.uniqueness_violations``)
    sorts the runs of every validated window, so it never re-reads or
    shuffles the keys to find candidates."""

    def __init__(self, spec: TableSpec):
        self.key = spec.unique_key

    def process(self, ctx: CheckContext) -> None:
        if self.key and all(c in ctx.batch.column_names for c in self.key):
            h = hash_keys(ctx.batch, self.key)
            column = "|".join(self.key)
            ctx.append("sketch", "uniqueness", column=column,
                       detail="hll", blob=sketches.dumps(HLL().update(h)))
            ctx.append("sketch", "key_hashes", column=column, detail="run",
                       blob=np.sort(h.view(np.int64)).tobytes())


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


class ValidationKernel:
    """Callable-class kernel for ``map_batches`` (actor pool or tasks).

    The spec is compiled into a list of ``BatchCheck`` instances in
    ``__init__`` (once per actor, SURVEY.md §2.10 / T-stages);
    ``__call__`` runs every check over each batch — fully vectorized
    except the sha256 row loop (hashlib, C-speed).

    ``hist_edges`` maps profile column → bin edges; edges must be identical
    across windows so histogram partials stay mergeable and PSI-comparable.
    ``max_violations_per_batch`` caps emitted violation rows (counters always
    carry exact totals) so a pathological window cannot blow up the findings
    table at 100 TB scale.  A column without edges gets 10 bins over
    [0, 1]; ad-hoc checks come in through ``spec.custom_checks``."""

    def __init__(self, spec: TableSpec, hist_edges: dict | None = None,
                 max_violations_per_batch: int = 10_000,
                 membership: dict[int, object] | None = None,
                 window_column: str | None = None) -> None:
        self.spec = spec
        self.cap = max_violations_per_batch
        self.window_column = window_column
        # membership[i] = key set / BloomFilter / ray.ObjectRef of either, for
        # spec.foreign_keys[i] — broadcast ONCE (ray.put on the driver), the
        # ray.get here runs once per actor/task, not per batch (T4/J2).
        resolved: dict[int, object] = {}
        if membership:
            import ray

            for i, m in membership.items():
                resolved[i] = ray.get(m) if isinstance(m, ray.ObjectRef) else m
        self.checks = build_checks(spec, hist_edges or {}, resolved)

    def __call__(self, batch: pa.Table) -> pa.Table:
        wc = self.window_column
        if wc is None or wc not in batch.column_names:
            return self._process(batch, -1)
        # split by window value (input is window-ordered, so batches rarely
        # straddle more than one boundary; this loop is 1-2 iterations);
        # a 0-row batch holds no window and yields no findings
        wvals = batch[wc].to_pandas()
        parts = []
        for w in wvals.unique():
            mask = pa.array((wvals == w).to_numpy())
            parts.append(self._process(batch.filter(mask), int(w)))
        return pa.concat_tables(parts) if parts else FINDINGS_SCHEMA.empty_table()

    def _process(self, batch: pa.Table, window: int) -> pa.Table:
        out = _empty_findings()
        _append(out, "counter", "rows", n=batch.num_rows)
        if batch.num_rows == 0:
            return findings_table(out, window)
        ctx = CheckContext(batch, window, self.spec, out, self.cap)
        for check in self.checks:
            check.process(ctx)
        return findings_table(out, window)
