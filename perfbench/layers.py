"""Per-layer numbers of a traced run.

``op_layers`` turns the spans of one traced op (plus a few measurements
taken right after it, outside the op's time) into per-layer values;
``kernel_probe`` and ``bloom_probe`` time single layers on fixed in-memory
inputs.  ``PER_LAYER`` lists every metric with its unit and the end-to-end
metric and workload it should move.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import time

import pyarrow.parquet as pq

from driftray import checks as C
from driftray import pipeline as P

import tracing as T

CHECK_NAMES = {
    "CompletenessCheck": "completeness", "RangeCheck": "range",
    "AcceptedValuesCheck": "accepted_values", "FormatCheck": "format",
    "Sha256Check": "sha256", "ReferentialCheck": "referential",
    "ProfileCheck": "profile", "UniquenessHLLCheck": "uniqueness_hll",
}

# name → (unit, end-to-end metric it should move, workload where it shows)
PER_LAYER = {
    "sources.read_s": ("s", "rows_per_s", "full_scan"),
    "sources.rows_read_per_row_validated": ("ratio", "latency_p50_s",
                                            "append_window; constant on full_scan"),
    "schema_drift.preflight_s": ("s", "latency_p50_s", "append_window"),
    "pipeline.membership_s": ("s", "latency_p50_s", "append_window"),
    "pipeline.window_discovery_s": ("s", "latency_p50_s", "append_window"),
    "pipeline.hist_edges_s": ("s", "latency_p50_s", "append_window"),
    "pipeline.kernel_pass_s": ("s", "rows_per_s", "full_scan"),
    "pipeline.uniqueness_s": ("s", "rows_per_s", "full_scan"),
    "pipeline.uniqueness_candidate_precision": ("ratio", "rows_per_s", "full_scan"),
    "pipeline.merge_findings_s": ("s", "rows_per_s, peak_rss_mb", "full_scan"),
    "pipeline.write_window_s": ("s", "latency_p50_s", "append_window"),
    "pipeline.bytes_written_per_window": ("bytes", "latency_p50_s", "append_window"),
    "pipeline.aggregate_profiles_s": ("s", "latency_p50_s", "append_window"),
    **{f"checks.{n}.s_per_krow": ("s/krow", "rows_per_s",
                                  "full_scan (sha256 expected to dominate); "
                                  "~0 share on sensor_stream")
       for n in CHECK_NAMES.values()},
    "checks.findings_rows_per_krow": ("rows/krow", "peak_rss_mb", "full_scan"),
    "sketches.bytes_per_window": ("bytes", "peak_rss_mb, rows_per_s", "full_scan"),
    "bloom.probe_s_per_krow": ("s/krow", "rows_per_s", "full_scan"),
    "bloom.false_positive_share": ("ratio", "failed_op_share", "full_scan"),
    "drift.report_s": ("s", "latency_p50_s", "append_window"),
    "alerts.evaluate_s": ("s", "latency_p50_s", "append_window"),
    "pipelines.sensor.sort_s": ("s", "rows_per_s", "sensor_stream"),
    "pipelines.sensor.replay_s": ("s", "rows_per_s", "sensor_stream"),
    "setup.ray_init_s": ("s", "setup_s", "all"),
    "setup.warmup_s": ("s", "setup_s", "all"),
    "setup.base_validate_s": ("s", "setup_s", "append_window"),
    "trace.overhead_s": ("s", "none: traced minus untraced op time, median over op pairs", "all"),
    "trace.stage_max_diff_s": ("s", "none: span sums vs run_lineage stages_s", "all"),
}


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(f) for f in glob.glob(os.path.join(path, "*"))
               if os.path.isfile(f))


def _profile_bytes(window_dir: str) -> int:
    t = pq.read_table(os.path.join(window_dir, "profiles.parquet"))
    return sum(len(b) for c in ("moments", "tdigest", "hist")
               for b in t[c].to_pylist())


def op_layers(tracer: T.Tracer, op_id, rows: int, dim_paths: set[str]) -> dict:
    """Per-layer values of one traced op.  Reads are lazy in Ray Data, so
    ``sources.read_s`` materializes, right after the op, every dataset the
    op's reads returned and times that."""
    spans = tracer.op_spans(op_id)
    tot = lambda *names: T.total(spans, *names)  # noqa: E731
    names = {s.name for s in spans}
    m: dict[str, float] = {}

    reads = T.top_level(spans, "ray.data.read_parquet") + T.top_level(
        spans, "ops.zonemap.pruned_read")
    if reads and rows:
        t0 = time.perf_counter()
        mats = [s.info["dataset"].materialize() for s in reads]
        m["sources.read_s"] = time.perf_counter() - t0
        m["sources.rows_read_per_row_validated"] = sum(d.count() for d in mats) / rows
        del mats
    if "pipeline.validate_dataset" in names:
        m["schema_drift.preflight_s"] = tot("sources.footer_schema_groups",
                                            "schema_drift.record_and_diff")
        m["pipeline.membership_s"] = tot("pipeline.build_membership") + sum(
            s.dur for s in spans if s.name == "ray.put" and (s.info or {}).get("membership"))
        m["pipeline.hist_edges_s"] = tot("pipeline.infer_hist_edges")
        m["pipeline.kernel_pass_s"] = tot("pipeline.validate_dataset")
        m["pipeline.merge_findings_s"] = tot("pipeline.merge_findings")
        m["drift.report_s"] = tot("pipeline.drift_report")
        m["alerts.evaluate_s"] = tot("alerts.AlertManager.evaluate")
        root = tracer.roots[op_id]
        stages = T.stage_sums(spans, root, dim_paths)
        m["pipeline.window_discovery_s"] = stages["window_discovery"]
        writes = T.top_level(spans, "pipeline.write_window_result")
        m["pipeline.write_window_s"] = sum(s.dur for s in writes)
        if writes:
            out_dir = writes[0].info["out_dir"]
            wdirs = [os.path.join(out_dir, f"window={s.info['window_id']}") for s in writes]
            m["pipeline.bytes_written_per_window"] = statistics.median(
                _dir_bytes(d) for d in wdirs)
            m["sketches.bytes_per_window"] = statistics.median(
                _profile_bytes(d) for d in wdirs)
            with open(os.path.join(out_dir, "run_lineage.jsonl")) as f:
                engine = json.loads(f.read().splitlines()[-1])["stages_s"]
            m["trace.stage_diff"] = {k: round(stages[k] - v, 4)
                                     for k, v in engine.items() if k in stages}
            m["trace.stage_max_diff_s"] = max(abs(v) for v in m["trace.stage_diff"].values())
    uniq = T.top_level(spans, "pipeline.uniqueness_violations")
    if uniq:
        m["pipeline.uniqueness_s"] = sum(s.dur for s in uniq)
        cand = sum(s.info["candidates"] for s in T.top_level(
            spans, "ops.relational.duplicate_values_sorted"))
        if cand:
            m["pipeline.uniqueness_candidate_precision"] = sum(
                s.info["duplicate_keys"] for s in uniq) / cand
    if "pipeline.aggregate_profiles" in names:
        m["pipeline.aggregate_profiles_s"] = tot("pipeline.aggregate_profiles")
    if "drift.UnusualRatioReplay.feed" in names:
        m["pipelines.sensor.replay_s"] = tot("drift.UnusualRatioReplay.feed",
                                             "drift.UnusualRatioReplay.finish")
    return m


def _median_time(fn, min_s: float = 0.05, reps: int = 5) -> float:
    """Median over ``reps`` samples, each repeating ``fn`` for ≥ ``min_s``."""
    out = []
    for _ in range(reps):
        n, t0 = 0, time.perf_counter()
        while True:
            fn()
            n += 1
            dt = time.perf_counter() - t0
            if dt >= min_s:
                break
        out.append(dt / n)
    return statistics.median(out)


def kernel_probe(spec, batch, hist_edges: dict, membership: dict) -> dict:
    """Each ``BatchCheck.process`` of a ``ValidationKernel`` on one fixed
    in-memory batch, in s per 1000 rows, plus the findings rows the whole
    kernel emits per 1000 rows and the HLL partial's size."""
    kernel = C.ValidationKernel(spec, hist_edges=hist_edges, membership=membership)
    krows = batch.num_rows / 1000
    m = {}
    for check in kernel.checks:
        def run(check=check):
            out = {n: [] for n in C.FINDINGS_SCHEMA.names if n != "window"}
            check.process(C.CheckContext(batch, 0, spec, out, kernel.cap))
        m[f"checks.{CHECK_NAMES[type(check).__name__]}.s_per_krow"] = _median_time(run) / krows
    findings = kernel(batch)
    m["checks.findings_rows_per_krow"] = findings.num_rows / krows
    hll = [b for c, b in zip(findings["check"].to_pylist(), findings["blob"].to_pylist())
           if c == "uniqueness" and b]
    m["hll_bytes"] = len(hll[0]) if hll else 0
    return m


def bloom_probe(dims: dict, orphans) -> dict:
    """``BloomFilter.contains`` over the planted orphan keys (repo filter
    and (repo, commit) filter, as ``run_validation`` builds them)."""
    import numpy as np

    parts = []
    for path, cols in ((dims["repos"], ["repo"]), (dims["commits"], ["repo", "commit"])):
        bf = P.build_membership(pq.read_table(path), cols, use_bloom=True)
        keys = C.hash_keys(orphans, cols)
        parts.append((bf, np.tile(keys, max(1, 20_000 // max(len(keys), 1)))))
    n = sum(len(k) for _, k in parts)
    t = _median_time(lambda: [bf.contains(k) for bf, k in parts])
    return {"bloom.probe_s_per_krow": t / (n / 1000)}
