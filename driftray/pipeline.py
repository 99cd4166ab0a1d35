"""Window validation pipeline: the engine's flagship end-to-end flow.

ingest window → validate (constraint kernels, single pass) → profile
(mergeable sketches) → drift (vs stored baseline) → verdict + violations +
lineage → partitioned Parquet — the realization of the reference's
conceptual lifecycle (``/root/reference/DESIGN.md:7-24,324-330,516-524``)
over Ray tasks (SURVEY.md §3.4).

Scale notes
-----------
* Every step runs one way: a footer plan handed to
  ``ops.zonemap.map_row_groups``, one plain task per planned row group,
  whose outputs are the kernel's findings (KB-sized), 8 B per row (key
  hashes) or the candidate rows.  :func:`validate_dataset` and
  :func:`uniqueness_violations` take that step as a ``map_rows(fn)``
  callable; nothing here starts a Ray Data execution.  The kernel pass
  is a fused read→check map with small output, so a streaming
  executor's operator pipelining and backpressure would buy it nothing
  but its start-up.  The run is
  planned from Parquet footers on the driver: ONE window zone map lists
  each row group's window ids, and every read takes the row groups
  holding its windows, padded to the union schema of every windowed
  file's footer, and histogram edges fold the footer min/max
  (or come from the baseline).  Nothing is an all-to-all job, and
  ``run_lineage.jsonl`` counts each stage's tasks (``jobs``).
* Each file's footer is read ONCE per run (``sources.read_footers``);
  the schema groups, the zone map and the histogram edges all plan from
  it.
* The raw input is read ONCE per window; the kernel's findings output
  (exact counters, a bounded violation sample + KB-sized sketches) is
  the only thing materialized.  A row group whose rows all belong to the
  chunk's windows is neither filtered nor copied: the read passes it on
  as read, and the kernel checks each window's run of rows as a
  zero-copy slice.  The findings reduce on the driver in one pass over
  Python lists, without pandas.
* The kernel keeps no state across batches, and :func:`merge_findings`
  reduces each window's findings exactly (counters sum, ``config``
  counters take the max, violation samples are per-(check, column)
  bottom-k by row ref), so counters, verdicts and ``violations.parquet``
  do not depend on how the rows were split into files or tasks.
* Referential membership (a sorted run of the dimension's 8-byte key
  hashes, or a Bloom filter over them at 100 TB scale) travels inside
  the kernel, which ``map_row_groups`` puts in the object store once per
  pass, and is probed in the same kernel pass — no shuffle join.
* Exact key-uniqueness needs no shuffle and has one source: the kernel
  pass emits each batch's sorted 8-byte key-hash run, each window counts
  its distinct keys from its run and persists it, and the driver sorts
  the runs of all validated windows to find duplicate hashes.  Only when
  some exist do plain tasks over the zone-map-pruned row groups of those
  windows return the candidate rows, which one Arrow ``group_by``
  verifies exactly on the driver.
* Windows are independent → embarrassingly parallel across the cluster;
  a killed run resumes by skipping windows whose ``_DONE`` marker exists.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

try:
    # Ray's path resolution re-attempts `from fsspec.implementations.http
    # import HTTPFileSystem` on EVERY read; with aiohttp absent the import
    # fails each time, and two driver threads racing that failing import
    # can observe a partially-initialized module → uncaught ImportError.
    # Install a sentinel module once: imports then succeed deterministically
    # and the isinstance check is False for every real filesystem.
    import fsspec.implementations.http  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover - aiohttp absent in sandbox
    import sys as _sys
    import types as _types

    _m = _types.ModuleType("fsspec.implementations.http")

    class _NoHTTPFileSystem:  # sentinel: local/S3 filesystems never match
        pass

    _m.HTTPFileSystem = _NoHTTPFileSystem
    _sys.modules["fsspec.implementations.http"] = _m

from . import sketches
from .bloom import BloomFilter
from .checks import (EMPTY_GROUP, FINDINGS_SCHEMA, ValidationKernel, hash_keys,
                     in_sorted, join_key)
from .drift import (js_divergence, ks_from_digests, ks_pvalue, mean_difference, psi,
                    psi_from_counts)
from .sketches import ColumnProfile
from .spec import TableSpec

# plain row-group tasks ("row_group_tasks") started, and row groups the
# kernel pass read ("row_groups"), by this thread's current run_validation
# call; its run_lineage.jsonl line records them per stage ("jobs")
_jobs: ContextVar[Counter | None] = ContextVar("driftray_jobs", default=None)


def _count(kind: str, n: int = 1) -> None:
    jobs = _jobs.get()
    if jobs is not None:
        jobs[kind] += n


@dataclass
class WindowResult:
    window_id: int
    n_rows: int
    counters: dict            # check|column → violation count (exact)
    violations: pa.Table      # bottom-k sample per (check, column), sorted
    profiles: dict            # (group, column) → ColumnProfile
    drift_rows: list = field(default_factory=list)
    drift_detected: bool = False
    wall_s: float = 0.0
    key_hashes: np.ndarray | None = None  # sorted int64 key-hash run

    @property
    def distinct_keys(self) -> int | None:
        """Exact count of distinct key hashes in the window's run; None
        when the spec has no unique key."""
        run = self.key_hashes
        if run is None:
            return None
        return int(len(run) > 0) + int(np.count_nonzero(run[1:] != run[:-1]))

    @property
    def total_violations(self) -> int:
        return sum(v for k, v in self.counters.items() if not k.startswith("rows"))

    @property
    def quality_score(self) -> float:
        """DESIGN.md:386-391: scalar from error rates — 1 - violations/rows."""
        if not self.n_rows:
            return 1.0
        return max(0.0, 1.0 - self.total_violations / self.n_rows)

    @property
    def passed(self) -> bool:
        return self.total_violations == 0 and not self.drift_detected

    def verdict_row(self) -> dict:
        return {
            "window_id": self.window_id,
            "n_rows": self.n_rows,
            "n_violations": self.total_violations,
            "quality_score": round(self.quality_score, 6),
            "drift_detected": self.drift_detected,
            "passed": self.passed,
            "counters": dict(self.counters),
            "wall_s": round(self.wall_s, 3),
        }


def build_membership(dim: pa.Table | str, columns, *,
                     use_bloom: bool = False):
    """The dimension-side key set: the sorted distinct uint64 hashes of
    the joined key columns (``checks.hash_keys``), probed with
    ``checks.in_sorted``, or with ``use_bloom`` a Bloom filter over the
    same hashes (scale path: sized to the dimension's keys at a 1e-4
    false-positive rate).

    The dimension side is small relative to the fact table (repos, commit
    pairs) — it is aggregated to a single object that ships inside the
    fact kernel, where the probes happen (no shuffle).  A
    parquet file or directory path is hashed in plain tasks, one per
    row group of its footers (``sources.read_footers``, each read once;
    ``ops.zonemap.map_row_groups``), each
    returning the uint64 hashes of its rows' keys: 8 B per dimension row
    reaches the driver, not the key strings.

    A hash collision can only mask a violation (never invent one) with
    probability ~n_dim/2^64 per probed row — negligible next to the Bloom
    FPR this degrades to at scale anyway."""
    if isinstance(dim, str):
        from .ops.zonemap import map_row_groups, row_groups_of
        from .sources import read_footers

        cols = list(columns)
        plan = row_groups_of(read_footers(dim))
        _count("row_group_tasks", len(plan))
        # a partial of a module-level function pickles by reference
        arrays = map_row_groups(plan, partial(hash_keys, columns=cols), cols)
    else:
        arrays = [hash_keys(dim, columns)]
    all_keys = np.concatenate(arrays) if arrays else np.array([], dtype=np.uint64)
    if use_bloom:
        return BloomFilter(max(len(all_keys), 1), 1e-4).add(all_keys)
    return np.unique(all_keys)


def merge_findings(findings: pa.Table,
                   kernel: ValidationKernel) -> dict[int, WindowResult]:
    """Reduce the findings ``kernel`` emitted to one ``WindowResult`` per
    window, in one pass over the table's columns as Python lists.  This
    is the one place a window reduces, and each output depends only on
    the window's rows, not on how they were split into batches:

    * counters sum per (check, column), except ``config`` counters (one
      per batch lacking a rule's ``when`` column), which take the max;
      keyed ``check`` or ``check|column``, ordered by (check, column);
    * violations: per (check, column), the ``kernel.cap`` least rows by
      (row_ref, detail) of the union of the batches' bottom-k samples,
      a column-level row (``row_ref == "*"``) once; sorted;
    * profiles merge per (group, column) in row order, ordered by it;
    * the key-hash runs concatenate into one sorted ``key_hashes`` run,
      whose distinct values give ``distinct_keys`` (None when the spec
      has no unique key)."""
    acc: dict[int, tuple] = {}
    for w, kind, check, column, group, ref, detail, n, blob in zip(*(
            findings[c].to_pylist() for c in FINDINGS_SCHEMA.names)):
        sums, rows, merged, runs = acc.setdefault(w, ({}, [], {}, []))
        if kind == "counter":
            old = sums.get((check, column), 0)
            sums[check, column] = max(old, n) if check == "config" else old + n
        elif kind == "violation":
            rows.append((check, column, ref, detail))
        elif kind == "sketch" and check == "profile":
            p = sketches.loads(blob)
            if (group, column) in merged:
                merged[group, column].merge(p)
            else:
                merged[group, column] = p
        elif kind == "sketch" and check == "key_hashes":
            runs.append(np.frombuffer(blob, np.int64))
    results = {}
    for w in sorted(acc):
        sums, rows, merged, runs = acc[w]
        counters = {check if column == "" else f"{check}|{column}": sums[check, column]
                    for check, column in sorted(sums)}
        results[w] = WindowResult(
            w, int(counters.get("rows", 0)), counters,
            _violation_sample(rows, kernel.cap),
            {key: merged[key] for key in sorted(merged)},
            key_hashes=(np.sort(_concat_runs(runs))
                        if kernel.spec.unique_key else None))
    return results


def _violation_sample(rows: list[tuple], k: int) -> pa.Table:
    """The sorted ``(check, column, row_ref, detail)`` rows: the ``k``
    least per (check, column), a ``"*"`` row once."""
    kept, taken, prev = [], Counter(), None
    for row in sorted(rows):
        if row == prev and row[2] == "*":
            continue
        prev = row
        if taken[row[:2]] < k:
            taken[row[:2]] += 1
            kept.append(row)
    cols = list(zip(*kept)) or [()] * len(VIOLATION_COLUMNS)
    return pa.table({name: pa.array(col, pa.string())
                     for name, col in zip(VIOLATION_COLUMNS, cols)})


# ---------------------------------------------------------------------------
# exact key uniqueness (no shuffle: driver-side sort of the kernel's runs)
# ---------------------------------------------------------------------------


VIOLATION_COLUMNS = ("check", "column", "row_ref", "detail")


def _empty_violations() -> pa.Table:
    return pa.table({c: pa.array([], pa.string()) for c in VIOLATION_COLUMNS})


def _empty_result(window_id: int, spec: TableSpec) -> WindowResult:
    """The result of a window that holds no rows."""
    return WindowResult(window_id, 0, {}, _empty_violations(), {},
                        key_hashes=np.empty(0, np.int64) if spec.unique_key else None)


def _concat_runs(runs) -> np.ndarray:
    """One int64 array from per-batch/per-window key-hash runs."""
    runs = [r for r in runs if r is not None]
    return np.concatenate(runs) if runs else np.empty(0, np.int64)


def uniqueness_violations(map_rows, spec: TableSpec, key_hashes: np.ndarray,
                          ) -> tuple[pa.Table, int, pa.Table | None]:
    """Exact table-wide duplicate-key detection over the rows
    ``map_rows`` reads, two-tier:

    1. Candidates: ``key_hashes`` holds one int64 ``hash_keys`` value per
       row — the runs the kernel pass already emitted (``key_hashes``
       findings rows, ``WindowResult.key_hashes``), so no read and no
       shuffle.  The driver sorts them in memory and keeps the
       adjacent-equal values (real duplicates plus ~n²/2⁶⁴ collisions).
       The driver holds 8 bytes per table row (96 KB at 12k rows, 800 MB
       at 10⁸), plus one sorted copy while it scans.
    2. Verification: only when candidates exist, ONE pass over the key
       (+ order) columns keeps the candidate rows (``_fetch_candidates``,
       whose partial carries the sorted candidate array), and one Arrow
       ``group_by`` on their full key strings counts each key's rows and
       takes its least order value.

    ``map_rows(fn)`` runs ``fn`` over the rows' tables and returns its
    outputs, as ``validate_dataset`` takes it: ``run_validation`` passes
    its zone-map-pruned row-group plan of the validated windows (plain
    tasks, ``ops.zonemap.map_row_groups``), and an in-memory caller
    ``lambda fn: [fn(t) for t in tables]``.  It must read exactly the rows
    the hashes cover, with their key (+ order) columns.

    Returns ``(violations, extra, winners)``: one violation row per
    duplicated key (detail = occurrence count), the exact count of EXTRA
    rows beyond the kept-first (first-wins by ``spec.order_column``, the
    pinned resolution of the reference's first-wins/last-wins
    inconsistency, ``news.py:74-82`` vs ``news.py:349-356``; SURVEY.md
    D2/D3), and — when the spec has an order column — a small winners
    table (key, win_order) naming the documented winner of each
    duplicated key: its least order value, typed like the order column.
    Both tables are sorted by key (byte order of the key string)."""
    key_cols = list(spec.unique_key or ())
    if not key_cols:
        return _empty_violations(), 0, None

    from .ops.relational import duplicate_values_sorted

    dup_h = duplicate_values_sorted(key_hashes)
    if len(dup_h) == 0:
        return _empty_violations(), 0, None

    parts = map_rows(partial(_fetch_candidates, key_cols=key_cols,
                             order_col=spec.order_column, candidates=dup_h))
    if not parts:
        return _empty_violations(), 0, None
    cand = pa.concat_tables(parts)
    with_ord = "ord" in cand.column_names
    per_key = cand.group_by("key").aggregate(
        [("key", "count"), *([("ord", "min")] if with_ord else [])])
    dups = (per_key.filter(pc.greater(per_key["key_count"], 1))
            .sort_by("key").combine_chunks())
    if not dups.num_rows:
        return _empty_violations(), 0, None
    counts = dups["key_count"].to_pylist()
    winners = (pa.table({"key": dups["key"], "win_order": dups["ord_min"]})
               if with_ord else None)
    violations = pa.table({
        "check": pa.array(["uniqueness"] * len(counts)),
        "column": pa.array(["|".join(key_cols)] * len(counts)),
        "row_ref": dups["key"],
        "detail": pa.array([f"{c} occurrences (kept first by order)" for c in counts],
                           pa.string()),
    })
    return violations, sum(counts) - len(counts), winners


# The per-row-group step below is a module-level function bound with
# ``functools.partial``: a task pickles it by reference, where a
# closure is pickled by value (cloudpickle then walks ``sys.modules``).


def _fetch_candidates(b: pa.Table, key_cols: list[str], order_col,
                      candidates: np.ndarray) -> pa.Table:
    """The rows of ``b`` whose key hash is a candidate (``candidates``:
    the sorted duplicate hashes), as their full key string (+ order
    value)."""
    mask = in_sorted(candidates, hash_keys(b, key_cols))
    sub = b.filter(pa.array(mask))
    out = {"key": pa.array(join_key(sub, key_cols), pa.string())}
    if order_col and order_col in sub.column_names:
        out["ord"] = sub[order_col]
    return pa.table(out)


# ---------------------------------------------------------------------------
# baseline store + drift scoring
# ---------------------------------------------------------------------------


class Baseline:
    """Persisted per-(group, column) sketch table — the engine's version of
    ``DriftDetector.reference_data`` (``DESIGN.md:533-551``), stored as
    Parquet so every node can load it (W6 'baseline promote' = rewrite)."""

    def __init__(self, profiles: dict[tuple[str, str], ColumnProfile]):
        self.profiles = profiles

    def save(self, path: str) -> None:
        keys = list(self.profiles)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        pq.write_table(pa.table({
            "group": pa.array([g for g, _ in keys], pa.string()),
            "column": pa.array([c for _, c in keys], pa.string()),
            **{part: pa.array([sketches.dumps(getattr(self.profiles[k], part))
                               for k in keys], pa.binary())
               for part in ColumnProfile.PARTS},
        }), path)

    @classmethod
    def load(cls, path: str) -> "Baseline":
        t = pq.read_table(path)
        rows = zip(*(t[n].to_pylist() for n in ("group", "column", *ColumnProfile.PARTS)))
        return cls({(g, c): ColumnProfile(c, g, *map(sketches.loads, parts))
                    for g, c, *parts in rows})


def drift_report(baseline: "Baseline", profiles: dict, spec: TableSpec) -> list[dict]:
    """KS + PSI + JS + mean-difference per (group, column) vs the baseline
    (``DESIGN.md:556-580`` report shape), plus one categorical-drift row per
    profile column over the GROUP SHARES (e.g. the lang mix), PSI over group
    row-count frequencies.

    KS statistic comes from the two t-digest ECDFs (scale path, no raw
    rows); its p-value uses the asymptotic Kolmogorov distribution with the
    sketch counts.  The numeric gate requires BOTH significance
    (p < ks_p_threshold) and effect size (stat > ks_stat_threshold, above
    the sketch approximation error) — or a PSI/JS threshold breach."""
    rows = []
    d = spec.drift
    for (g, c), cur in sorted(profiles.items()):
        ref = baseline.profiles.get((g, c))
        if ref is None or ref.moments.n == 0 or cur.moments.n == 0:
            continue
        ks_stat = ks_from_digests(ref.tdigest, cur.tdigest)
        n1, n2 = ref.moments.n, cur.moments.n
        ks_p = ks_pvalue(ks_stat, n1, n2)
        psi_v = psi(ref.hist, cur.hist)
        js_v = js_divergence(ref.hist, cur.hist)
        md = mean_difference(ref.moments.mean, ref.moments.std, cur.moments.mean)
        drifted = bool(
            (ks_p < d.ks_p_threshold and ks_stat > d.ks_stat_threshold)
            or psi_v > d.psi_threshold
            or js_v > d.js_threshold
        )
        # small groups are advisory only: PSI/KS on a few hundred rows is
        # dominated by sampling noise (gate tested in tests/test_drift.py)
        if g != "" and (n1 < d.min_group_count or n2 < d.min_group_count):
            drifted = False
        rows.append({
            "kind": "numeric", "group": g, "column": c,
            "ks_stat": round(ks_stat, 6), "ks_p": ks_p,
            "psi": round(psi_v, 6), "js": round(js_v, 6),
            "mean_difference": round(md, 6),
            "ref_count": int(n1), "cur_count": int(n2),
            "drift_detected": drifted,
        })
    # categorical drift: PSI over group-share frequencies per profile column.
    # A baseline stored before the empty-string group had its own label
    # (EMPTY_GROUP) has no such profile: its empty-string rows were in no
    # group share, so against it they stay out of the current shares too
    for col in sorted({c for (_, c) in profiles}):
        ref_counts, cur_counts = [], []
        skip = {""} if (EMPTY_GROUP, col) in baseline.profiles else {"", EMPTY_GROUP}
        groups = sorted({g for (g, c2) in set(profiles) | set(baseline.profiles)
                         if c2 == col and g not in skip})
        if len(groups) < 2:
            continue
        for g in groups:
            r = baseline.profiles.get((g, col))
            c2 = profiles.get((g, col))
            ref_counts.append(r.moments.n if r else 0)
            cur_counts.append(c2.moments.n if c2 else 0)
        cat_psi = psi_from_counts(np.asarray(ref_counts, dtype=np.float64),
                                  np.asarray(cur_counts, dtype=np.float64))
        rows.append({
            "kind": "categorical", "group": "*", "column": spec.group_column or col,
            "psi": round(cat_psi, 6),
            "drift_detected": bool(cat_psi > d.categorical_psi_threshold),
        })
    return rows



# ---------------------------------------------------------------------------
# window validation + run orchestration (resumable)
# ---------------------------------------------------------------------------


HIST_BINS = 32  # histogram bins per profile column


def infer_hist_edges(input_path: str, spec: TableSpec,
                     footers: dict | None = None) -> dict[str, np.ndarray]:
    """``HIST_BINS`` histogram bin edges per profile column, from the
    table's min/max.

    Edges must be identical across windows so histogram partials merge and
    PSI/JS compare.  Heavy-tailed positive columns (hi/lo > 1000, e.g.
    content length) get log-spaced edges so the mass doesn't collapse into
    one linear bin.

    The min/max is a driver-side fold over the Parquet footer statistics
    of every row group (no Ray job, no data read).  A row group whose
    column chunk has no min/max statistics has that one chunk read
    instead; an all-null chunk contributes nothing, and a column with no
    non-null value anywhere gets no edges (the kernel's default).
    ``footers`` passes in the files' footers (``sources.read_footers``)
    when the caller has read them."""
    from .sources import read_footers

    cols = list(spec.profile_columns)
    if not cols:
        return {}
    lo: dict[str, float] = {}
    hi: dict[str, float] = {}

    def fold(c: str, vmin, vmax) -> None:
        lo[c] = min(lo.get(c, float(vmin)), float(vmin))
        hi[c] = max(hi.get(c, float(vmax)), float(vmax))

    if footers is None:
        footers = read_footers(input_path)
    for path, md in footers.items():
        index = {md.schema.column(i).path: i for i in range(md.num_columns)}
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            for c in cols:
                if c not in index:
                    continue  # a schema version without this column
                st = rg.column(index[c]).statistics
                if st is not None and st.has_min_max:
                    fold(c, st.min, st.max)
                elif not (st is not None and st.has_null_count
                          and st.null_count == rg.num_rows):
                    # reopened with its footer: only the chunk is read
                    with pq.ParquetFile(path, metadata=md) as pf:
                        mm = pc.min_max(pf.read_row_group(g, columns=[c])[c])
                    if mm["min"].is_valid:
                        fold(c, mm["min"].as_py(), mm["max"].as_py())
    edges: dict[str, np.ndarray] = {}
    for c in cols:
        if c not in lo:
            continue
        lo_c, hi_c = lo[c], hi[c]
        if not (hi_c > lo_c):
            hi_c = lo_c + 1.0
        if lo_c > 0 and hi_c / lo_c > 1000.0:
            edges[c] = np.geomspace(lo_c, hi_c, HIST_BINS + 1)
        else:
            edges[c] = np.linspace(lo_c, hi_c, HIST_BINS + 1)
    return edges


def validate_dataset(
    map_rows,
    spec: TableSpec,
    *,
    window_column: str | None = None,
    membership: dict[int, object] | None = None,
    baseline: Baseline | None = None,
    hist_edges: dict[str, np.ndarray] | None = None,
) -> dict[int, WindowResult]:
    """ONE pass over the rows ``map_rows`` reads, validating every window
    in them.

    ``map_rows(fn)`` runs ``fn`` over the rows' tables and returns its
    outputs, as ``uniqueness_violations`` takes it: a Parquet plan handed
    to ``ops.zonemap.map_row_groups`` (``run_validation``'s zone-map
    plan of a window chunk, or every row group of a catalogue query's
    file: one plain task per row group), or ``lambda fn: [fn(t) for t in
    tables]`` over in-memory tables.  The kernel runs once per table it
    is given, and ``merge_findings`` reduces its findings tables on the
    driver.

    The kernel tags findings rows with the window id, so N windows cost one
    read + one (tiny) findings table — per-window pipelines
    would pay N read/launch overheads.  Key uniqueness is table-GLOBAL
    (a key may not repeat across windows), so it is not checked here:
    ``uniqueness_violations`` takes the same ``map_rows`` and the results'
    ``key_hashes`` (``run_validation`` keeps its result under
    ``out_dir/table/``)."""
    t0 = time.perf_counter()
    kernel = ValidationKernel(spec, hist_edges=hist_edges, membership=membership,
                              window_column=window_column)
    parts = [t for t in map_rows(kernel) if t.num_rows]
    table = (pa.concat_tables([t.cast(FINDINGS_SCHEMA) for t in parts])
             if parts else FINDINGS_SCHEMA.empty_table())
    results = merge_findings(table, kernel) or {-1: _empty_result(-1, spec)}

    wall = time.perf_counter() - t0
    for res in results.values():
        res.wall_s = wall / max(len(results), 1)
        if baseline is not None:
            res.drift_rows = drift_report(baseline, res.profiles, spec)
            res.drift_detected = any(r["drift_detected"] for r in res.drift_rows)
    return results


KEY_HASHES_FILE = "key_hashes.npy"   # a window's sorted int64 key-hash run


def _window_dir(out_dir: str, window_id: int) -> str:
    return os.path.join(out_dir, f"window={window_id}")


def window_done(out_dir: str, window_id: int) -> bool:
    return os.path.exists(os.path.join(_window_dir(out_dir, window_id), "_DONE"))


def write_window_result(out_dir: str, res: WindowResult) -> None:
    """Resumable output layout (SURVEY.md §4.2): violations parquet +
    profile-sketch sidecar + lineage json, then the ``_DONE`` marker LAST so
    a kill mid-write leaves the window rerunnable, never half-trusted."""
    wdir = _window_dir(out_dir, res.window_id)
    os.makedirs(wdir, exist_ok=True)
    pq.write_table(res.violations, os.path.join(wdir, "violations.parquet"))
    if res.profiles:
        Baseline(res.profiles).save(os.path.join(wdir, "profiles.parquet"))
    lineage = res.verdict_row()
    lineage["profiles"] = [p.to_row() for p in res.profiles.values()]
    lineage["drift"] = res.drift_rows
    lineage["distinct_keys"] = res.distinct_keys
    with open(os.path.join(wdir, "lineage.json"), "w") as f:
        # json.dumps encodes in C; json.dump runs the pure-Python encoder
        f.write(json.dumps(lineage, default=float))
    if res.key_hashes is not None:
        np.save(os.path.join(wdir, KEY_HASHES_FILE), res.key_hashes)
    with open(os.path.join(wdir, "_DONE"), "w") as f:
        f.write("ok\n")


def done_windows(out_dir: str) -> list[int]:
    """Every window under ``out_dir`` with a ``_DONE`` marker, sorted."""
    import glob as _glob
    import re as _re

    return sorted(
        int(_re.search(r"window=(-?\d+)$", d).group(1))
        for d in _glob.glob(os.path.join(out_dir, "window=*"))
        if os.path.exists(os.path.join(d, "_DONE")))


def aggregate_profiles(out_dir: str,
                       windows: list[int] | None = None) -> "Baseline":
    """TABLE-level profiles by MERGING the per-window sketch sidecars —
    no rescan of the data, ever.  Because every sketch the kernel emits
    (Welford moments, t-digest, histogram) is order-insensitively
    mergeable, the table profile of N validated windows is a driver-side
    fold over N tiny ``profiles.parquet`` files; adding window N+1 later
    costs one more merge, not a recompute.  This is the incremental-
    aggregation half of the lakehouse story (S8): bronze windows →
    silver verdicts → GOLD table profiles, each derivable from the layer
    below without touching raw bytes again.

    ``windows=None`` merges every ``_DONE`` window under ``out_dir``; a
    window that held no rows has no profiles file and adds nothing."""
    if windows is None:
        windows = done_windows(out_dir)
    merged: dict[tuple[str, str], ColumnProfile] = {}
    for w in windows:
        path = os.path.join(_window_dir(out_dir, w), "profiles.parquet")
        if not os.path.exists(path):
            continue
        for key, p in Baseline.load(path).profiles.items():
            if key in merged:
                merged[key].merge(p)
            else:
                merged[key] = p
    return Baseline(merged)


def load_lineage(out_dir: str, window_id: int) -> dict:
    with open(os.path.join(_window_dir(out_dir, window_id), "lineage.json")) as f:
        return json.load(f)


def baseline_file(baseline_path: str, table: str | None = None) -> str:
    """Resolve the baseline location.  With ``table`` set, ``baseline_path``
    is a DIRECTORY holding one parquet per table
    (``<baseline_path>/<table>.parquet``) so specs sharing an out_dir
    promote independently instead of clobbering one shared file."""
    if table is None:
        return baseline_path
    return os.path.join(baseline_path, f"{table}.parquet")


def promote_baseline(out_dir: str, window_id: int, baseline_path: str,
                     table: str | None = None) -> None:
    """W6 / DESIGN.md:582-585 ``update_reference``: adopt a completed
    window's profile sketches as the new baseline.  Pass ``table``
    (usually ``spec.name``) to namespace the store per table — see
    ``baseline_file``.  A window without profiles (not validated, or it
    held no rows) raises ``ValueError``: an empty baseline would disable
    drift."""
    src = os.path.join(_window_dir(out_dir, window_id), "profiles.parquet")
    if not os.path.exists(src):
        raise ValueError(f"window {window_id} under {out_dir} has no "
                         "profiles to promote")
    Baseline.load(src).save(baseline_file(baseline_path, table))


def _zone_map_windows(zone: list[tuple], window_column: str) -> list[int]:
    """Every window id of the table, from the zone-map rows' window ids
    (``(file, row_group, windows, nulls)``); a row group holding a null
    window id raises, naming its file and index."""
    found: set[int] = set()
    for file, row_group, ws, nulls in zone:
        if nulls:
            raise ValueError(
                f"{nulls} row(s) with a null {window_column!r} in "
                f"{file}, row group {row_group}")
        found.update(int(w) for w in ws)
    return sorted(found)


def _map_rows(row_groups: list, schema, window_column: str,
              windows: list[int]):
    """``map_rows(fn)`` over the rows of ``windows``, as
    :func:`validate_dataset` and :func:`uniqueness_violations` take it:
    one plain task per planned row group (the zone-map rows holding
    ``windows``), all submitted by one ``ops.zonemap.map_row_groups``
    call.  Each task's read keeps exactly the rows of ``windows``, passes
    a row group they fill on as read, and pads a column its file lacks
    with typed nulls of ``schema`` (the union schema of the columns read
    over every windowed file).  ``fn``'s outputs come back to the driver."""
    from .ops.zonemap import map_row_groups

    members = pa.array(windows, pa.int64())

    def map_rows(fn) -> list:
        _count("row_group_tasks", len(row_groups))
        return map_row_groups(row_groups, fn, schema, col=window_column,
                              members=members)

    return map_rows


def run_validation(
    input_path: str,
    out_dir: str,
    spec: TableSpec,
    *,
    window_column: str = "window_id",
    windows: list[int] | None = None,
    dim_paths: dict[str, str] | None = None,
    baseline_path: str | None = None,
    use_bloom: bool = False,
    check_uniqueness: bool = True,
    windows_per_pass: int = 4,
) -> list[WindowResult]:
    """Validate every window of a partitioned Parquet table, resumably.

    * the run is planned on the driver (no Ray job) from ONE window zone
      map over every file holding ``window_column``: it lists each row
      group's window ids (a row group whose footer statistics do not pin
      one window has its window column read), and every read takes the
      row groups holding its windows, padded to the union schema of
      every windowed file's footer (so a window reads the same columns
      whichever schema versions its chunk spans);
    * ``windows=None`` takes the window ids from the zone map (a null id
      raises, naming its file and row group, and so does a file without
      ``window_column``); the bin edges come from the baseline's
      histograms when a baseline is loaded, else from the footer min/max
      (``infer_hist_edges``);
    * dimension keys are hashed ONCE, one plain task per row group (8 B
      per key back to the driver), into a sorted hash run (or a Bloom
      filter with ``use_bloom=True``) that ships inside the kernel;
    * pending windows run in CHUNKED kernel passes of
      ``windows_per_pass`` (window-tagged findings), one plain task per
      planned row group of the chunk (``validate_dataset`` over
      ``_map_rows``), each chunk writing
      per-window outputs + ``_DONE`` markers — a killed run loses at most
      one chunk and resumes past everything marked done (north_rule);
    * key uniqueness is a TABLE-level check (global across windows) over
      the persisted key-hash runs of every ``_DONE`` window, checkpointed
      under ``out_dir/table/``; ``table/lineage.json`` records the windows
      it covers, and a run recomputes it whenever a ``_DONE`` window is
      not covered (an appended window, a resumed run).  Its candidates are
      fetched by plain tasks over the planned row groups of those
      windows.

    So every step of the run is plain row-group tasks; a chunk that no
    row group holds runs no task, and its windows get 0-row results.
    Each ``run_lineage.jsonl`` line records, under ``jobs``, the plain
    row-group tasks every stage started, and
    ``jobs.validate_chunks.row_groups`` the row groups the kernel pass
    read.  Spec violations of the schema preflight are reported, not
    raised (``schema_drift.record_and_diff(strict=True)`` raises)."""
    os.makedirs(out_dir, exist_ok=True)
    t_run0 = time.perf_counter()
    stage_s: dict[str, float] = {}
    jobs = Counter()
    _jobs.set(jobs)
    stage_jobs: dict[str, Counter] = {}

    def _mark(name: str, t0: float) -> None:
        stage_s[name] = round(stage_s.get(name, 0.0) + time.perf_counter() - t0, 3)
        _mark_jobs(name)

    def _mark_jobs(name: str) -> None:
        # the jobs started since the previous mark belong to this stage
        since = jobs - sum(stage_jobs.values(), Counter())
        stage_jobs[name] = stage_jobs.get(name, Counter()) + since

    # schema preflight: metadata-only snapshot + drift vs the previous
    # run's snapshot (footer read — costs nothing at any scale).  The
    # baseline snapshot is NOT advanced here — only after the run
    # completes — so a crashed run's retry still reports the drift.
    t0 = time.perf_counter()
    from .schema_drift import persist_snapshot, record_and_diff
    from .sources import footer_schema_groups, read_footers, union_schema

    # each footer is read ONCE per run: the walk feeds the schema
    # snapshot, the drift diff, the zone map and the histogram edges
    _footers = read_footers(input_path)
    _fgroups = footer_schema_groups(input_path, footers=_footers)
    schema_report = record_and_diff(out_dir, input_path, spec,
                                    groups=_fgroups)
    n_schema_groups = len(_fgroups)

    # ONE window zone map per run, on the driver, over every file
    # holding the window column: each row group's window ids
    # (``values``).  Every read is planned from it and reads
    # ONLY the row groups holding its windows (read_parquet(filter=...)
    # does not prune row groups: every chunk re-scanned the table).  A
    # file without the window column raises when the windows are not
    # given; when they are, no read touches it.
    from .ops.zonemap import footer_zone_map

    windowed, schemas = [], []
    for sch, fs in _fgroups.values():
        if window_column in sch.names:
            windowed += fs
            schemas.append(sch)
        elif windows is None:
            raise ValueError(f"no {window_column!r} column in {fs[0]}; "
                             "pass windows= to validate the other files")
    zm = footer_zone_map(windowed, window_column, values=True,
                         footers=_footers)
    # one (file, row_group, window ids, null count) row per row group,
    # walked by every plan of the run
    _zone = [(f, g, set(ws), nulls)
             for f, g, ws, nulls in zip(*(zm[c].to_pylist() for c in (
                 "file", "row_group", "values", "nulls")))]

    def _plan(ws: list[int], columns=None):
        # the (file, row_group) pairs holding a window of ``ws``, and the
        # union schema of ``columns`` over every windowed file: a column
        # one schema version lacks reads as typed nulls in every window,
        # whichever versions a chunk's row groups span
        wset = set(ws)
        rows = [(f, g) for f, g, held, _nulls in _zone
                if not wset.isdisjoint(held)]
        return rows, union_schema(schemas, columns) if rows else None

    _mark("schema_preflight", t0)

    t0 = time.perf_counter()
    membership: dict[int, object] = {}
    if dim_paths:
        # one dimension at a time: submitting every dimension's tasks at
        # once spreads them over more workers, each of which then keeps
        # the engine's imports resident
        for i, fk in enumerate(spec.foreign_keys):
            path = dim_paths.get(fk.dim_table)
            if path is None:
                continue
            membership[i] = build_membership(path, fk.dim_columns,
                                             use_bloom=use_bloom)

    _mark("membership", t0)
    t0 = time.perf_counter()
    if windows is None:
        windows = _zone_map_windows(_zone, window_column)
    pending = [w for w in windows if not window_done(out_dir, w)]
    _mark("window_discovery", t0)
    t0 = time.perf_counter()

    # table uniqueness verifies its candidates on the key (+ order)
    # columns of the validated windows: plain tasks over the planned
    # row groups
    table_uniq = check_uniqueness and bool(spec.unique_key)
    key_cols = list(spec.unique_key or ())
    if spec.order_column and spec.order_column not in key_cols:
        key_cols.append(spec.order_column)

    def _read_keys(ws: list[int]):
        return _map_rows(*_plan(ws, key_cols), window_column, ws)

    # a run with nothing pending validates nothing and records nothing:
    # it only brings the table uniqueness result up to date
    out: list[WindowResult] = []
    if pending:
        # per-table namespacing: a directory baseline store resolves to this
        # spec's file; a missing per-table file simply means no baseline yet
        bpath = (baseline_file(baseline_path, spec.name)
                 if baseline_path and os.path.isdir(baseline_path)
                 else baseline_path)
        baseline = (Baseline.load(bpath)
                    if bpath and os.path.exists(bpath) else None)
        t0 = time.perf_counter()
        # a baseline pins the bin edges (one set per column, shared by every
        # group): every run's histograms then share the baseline's bins, so
        # drift compares like bins and windows' profiles merge; only columns
        # the baseline lacks get edges from the footers
        hist_edges = ({c: p.hist.edges for (_g, c), p in baseline.profiles.items()}
                      if baseline is not None else {})
        if any(c not in hist_edges for c in spec.profile_columns):
            hist_edges = {**infer_hist_edges(input_path, spec, footers=_footers),
                          **hist_edges}
        _mark("hist_edges", t0)

        # chunked passes: a killed run loses at most windows_per_pass windows
        # of work — everything behind a _DONE marker is skipped on resume, and
        # its persisted key-hash run still feeds the table uniqueness check.
        # A chunk whose windows no row group holds runs no kernel pass.
        for lo in range(0, len(pending), windows_per_pass):
            chunk = pending[lo: lo + windows_per_pass]
            row_groups, schema = _plan(chunk)
            _count("row_groups", len(row_groups))
            results = {} if not row_groups else validate_dataset(
                _map_rows(row_groups, schema, window_column, chunk),
                spec, window_column=window_column, membership=membership,
                baseline=baseline, hist_edges=hist_edges)
            for w in chunk:
                res = results.get(w) or _empty_result(w, spec)
                write_window_result(out_dir, res)
                out.append(res)

    # table-level uniqueness: GLOBAL across all windows (a key may not
    # repeat anywhere in the table, so it cannot be chunked per window).
    # It runs once, after the chunk passes, over the key-hash runs of every
    # _DONE window, and only when some _DONE window is not yet covered by
    # the persisted result under out_dir/table/.
    if table_uniq:
        _mark_jobs("validate_chunks")
        uniq_s = _table_uniqueness(_read_keys, out_dir, spec,
                                   {r.window_id: r.key_hashes for r in out})
        if uniq_s is not None:
            stage_s["uniqueness_overlapped"] = round(uniq_s, 3)
        _mark_jobs("uniqueness")
    if not pending:
        return out

    # threshold alerting over the fresh verdicts (T5, DESIGN.md:674-747);
    # history appends under out_dir/alerts/.  Schema drift is RUN-level
    # state, so it rides as one synthetic verdict row (window_id = -1)
    # with an integer schema_drift metric the default rule fires on.
    from .alerts import AlertManager

    verdict_rows = [r.verdict_row() for r in out]
    drift_info = schema_report["drift"]
    verdict_rows.append({
        "window_id": -1,
        "schema_drift": int(bool(drift_info and drift_info["drifted"])),
        "schema_violations": len(schema_report["spec_violations"]),
    })
    AlertManager(history_path=os.path.join(out_dir, "alerts")).evaluate(
        verdict_rows)

    # run-level stage metrics (A8: per-stage wall time + rows/s) — appended
    # per submission so resumed runs keep their history.  The
    # "uniqueness_overlapped" key (kept for continuity: the pass no longer
    # overlaps the chunks) times the uniqueness_violations call only and is
    # also part of the validate_chunks residual.
    stage_s["validate_chunks"] = round(
        time.perf_counter() - t_run0
        - sum(v for k, v in stage_s.items() if k != "uniqueness_overlapped"),
        3)
    _mark_jobs("validate_chunks")
    run_lineage = {
        "windows_validated": [r.window_id for r in out],
        "rows": int(sum(r.n_rows for r in out)),
        "total_s": round(time.perf_counter() - t_run0, 3),
        "stages_s": stage_s,
        # per stage: plain row-group tasks started, and the row groups
        # the kernel pass read; unlike stages_s, "validate_chunks"
        # excludes "uniqueness"
        "jobs": {name: {k: int(c[k]) for k in (
                     "row_group_tasks",
                     *(("row_groups",) if name == "validate_chunks" else ()))}
                 for name, c in stage_jobs.items()},
        "schema_drift": schema_report["drift"],
        "schema_violations": schema_report["spec_violations"],
        "schema_groups": n_schema_groups,
    }
    run_lineage["rows_per_sec"] = round(
        run_lineage["rows"] / max(run_lineage["total_s"], 1e-9), 1)
    hist_file = os.path.join(out_dir, "run_lineage.jsonl")
    with open(hist_file, "a") as f:
        f.write(json.dumps(run_lineage) + "\n")
    # the run succeeded — NOW advance the schema baseline for the next run
    persist_snapshot(out_dir, schema_report["schema"])
    return out


def _table_uniqueness(read_keys, out_dir: str, spec: TableSpec,
                      fresh: dict[int, np.ndarray]) -> float | None:
    """Bring the table uniqueness result under ``out_dir/table/`` up to
    date with every ``_DONE`` window; returns the seconds spent in
    ``uniqueness_violations``, or None when the result already covered
    exactly those windows (``table/lineage.json`` ``windows``).

    Key-hash runs come from ``fresh`` (window → run of this process) or
    from each window's persisted ``key_hashes.npy``; a ``_DONE`` window
    with neither raises ``ValueError`` naming it.  ``read_keys(windows)``
    returns those windows' key (+ order) rows as ``uniqueness_violations``
    takes them, which verifies the candidates: the zone-map-pruned
    row-group plan (plain tasks returning candidate rows)."""
    tdir = os.path.join(out_dir, "table")
    done = done_windows(out_dir)
    if (os.path.exists(os.path.join(tdir, "_DONE"))
            and load_table_report(out_dir).get("windows") == done):
        return None
    runs = []
    for w in done:
        run = fresh.get(w)
        if run is None:
            wdir = _window_dir(out_dir, w)
            if not os.path.exists(os.path.join(wdir, KEY_HASHES_FILE)):
                raise ValueError(
                    f"window {w} is marked done but {wdir} has no "
                    f"{KEY_HASHES_FILE}; remove its _DONE file so the next "
                    "run validates it again")
            run = np.load(os.path.join(wdir, KEY_HASHES_FILE))
        runs.append(run)
    map_rows = read_keys(done)
    t0 = time.perf_counter()
    dup, extra, winners = uniqueness_violations(map_rows, spec, _concat_runs(runs))
    elapsed = time.perf_counter() - t0
    # the marker goes first and comes back last: a kill mid-write leaves
    # the result stale (recomputed next run), never half-trusted
    os.makedirs(tdir, exist_ok=True)
    for name in ("_DONE", "uniqueness_winners.parquet"):
        if os.path.exists(os.path.join(tdir, name)):
            os.remove(os.path.join(tdir, name))
    pq.write_table(dup, os.path.join(tdir, "uniqueness_violations.parquet"))
    if winners is not None:
        # lineage artifact: first-by-order winner per duplicated key
        pq.write_table(winners, os.path.join(tdir, "uniqueness_winners.parquet"))
    with open(os.path.join(tdir, "lineage.json"), "w") as f:
        json.dump({"check": "uniqueness",
                   "key": "|".join(spec.unique_key),
                   "extra_rows": int(extra),
                   "duplicate_keys": dup.num_rows,
                   "windows": done}, f)
    with open(os.path.join(tdir, "_DONE"), "w") as f:
        f.write("ok\n")
    return elapsed


def load_table_report(out_dir: str) -> dict:
    """Table-level (cross-window) check lineage — currently uniqueness."""
    path = os.path.join(out_dir, "table", "lineage.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)
