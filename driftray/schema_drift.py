"""Schema snapshot + schema-drift detection — metadata-only, zero data scan.

The reference's DESIGN.md promises a Schema Registry with "evolution
tracking" (/root/reference/DESIGN.md:317-322) but ships none; this module
is the engine's realization.  A *schema snapshot* is just
``{column: arrow-type-string}`` read from the Parquet footers (pyarrow
dataset metadata — no row ever leaves storage, so it costs the same at
10^12 files as at 10^3).  ``run_validation`` records a snapshot per run
under ``out_dir/schema.json`` and reports the diff vs the previous run:
added / removed / type-changed columns — the "someone changed the
upstream writer" failure mode that row-level checks only catch after
scanning (or worse, silently, when the column is optional).

Spec-level findings (required / profiled columns absent from the file
schema) are a PRE-FLIGHT: ``run_validation`` reports them, and
``record_and_diff(strict=True)`` raises on them before any scan is
scheduled.
"""

from __future__ import annotations

import json
import os

import pyarrow.dataset as pads

from .spec import TableSpec

SCHEMA_FILE = "schema.json"


class SchemaError(RuntimeError):
    """Raised in strict mode when the file schema cannot satisfy the spec."""


def snapshot_schema(input_path: str, groups: dict | None = None) -> dict[str, str]:
    """``{column: type}`` from Parquet metadata only — the UNION across
    every file footer.  A directory written across schema versions must
    surface its added/removed columns here, not hide them behind the
    first fragment's schema (pyarrow dataset discovery does exactly
    that); a column whose type differs across files reports the sorted
    ``'a|b'`` type set, so a retype diffs as a change.

    ``groups`` accepts a precomputed :func:`sources.footer_schema_groups`
    result so callers that already walked the footers (run_validation
    walks once and threads it everywhere) don't pay the serial
    footer-open loop again on large directories."""
    from .sources import footer_schema_groups

    if groups is None:
        groups = footer_schema_groups(input_path)
    types: dict[str, set] = {}
    for sch, _files in groups.values():
        for name in sch.names:
            types.setdefault(name, set()).add(str(sch.field(name).type))
    return {name: "|".join(sorted(ts)) for name, ts in types.items()}


def diff_schemas(old: dict[str, str], new: dict[str, str]) -> dict:
    """Added / removed / type-changed columns between two snapshots."""
    added = sorted(set(new) - set(old))
    removed = sorted(set(old) - set(new))
    changed = sorted((c, old[c], new[c])
                     for c in set(old) & set(new) if old[c] != new[c])
    return {"added": added, "removed": removed,
            "changed": [{"column": c, "old": o, "new": n}
                        for c, o, n in changed],
            "drifted": bool(added or removed or changed)}


def spec_findings(schema: dict[str, str], spec: TableSpec) -> list[dict]:
    """Spec-vs-file-schema violations that make a scan pointless:
    required / unique-key / hash-invariant / profile columns absent."""
    out = []

    def need(col: str, why: str) -> None:
        if col not in schema:
            out.append({"column": col, "why": why})

    for c in spec.required_columns:
        need(c.name, "required column absent")
    for c in spec.range_columns:
        need(c.name, "range-checked column absent")
    for c in spec.unique_key or ():
        need(c, "unique-key column absent")
    for c in spec.profile_columns:
        need(c, "profile column absent")
    if spec.hash_invariant:
        need(spec.hash_invariant.content_column, "hash content column absent")
        need(spec.hash_invariant.hash_column, "hash column absent")
    return out


def record_and_diff(out_dir: str, input_path: str, spec: TableSpec,
                    strict: bool = False, persist: bool = True,
                    groups: dict | None = None) -> dict:
    """Snapshot the input schema, diff vs the previous run's snapshot
    (``out_dir/schema.json``), and return
    ``{"schema", "drift", "spec_violations"}``.  ``strict=True`` raises
    :class:`SchemaError` on any spec violation BEFORE a scan runs.

    ``persist=False`` makes this a pure INSPECTION (the CLI ``schema``
    command) — the stored baseline snapshot is left untouched, so
    looking at drift never consumes the drift evidence.  Callers that
    do persist should do so only after the run SUCCEEDS (see
    :func:`persist_snapshot` and ``pipeline.run_validation``), so a
    crashed run's retry still reports the drift in its lineage.
    ``groups`` forwards a precomputed footer grouping to
    :func:`snapshot_schema` (one footer walk per run, not three)."""
    schema = snapshot_schema(input_path, groups=groups)
    findings = spec_findings(schema, spec)
    if strict and findings:
        raise SchemaError(
            f"schema preflight failed for {spec.name}: " +
            "; ".join(f"{f['column']} ({f['why']})" for f in findings))
    path = os.path.join(out_dir, SCHEMA_FILE)
    drift = None
    if os.path.exists(path):
        with open(path) as f:
            drift = diff_schemas(json.load(f), schema)
    if persist:
        persist_snapshot(out_dir, schema)
    return {"schema": schema, "drift": drift, "spec_violations": findings}


def persist_snapshot(out_dir: str, schema: dict[str, str]) -> None:
    """Advance the stored baseline snapshot (call after a run succeeds)."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, SCHEMA_FILE), "w") as f:
        json.dump(schema, f, indent=1, sort_keys=True)
