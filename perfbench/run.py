#!/usr/bin/env python3
"""driftray benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload full_scan --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it validates the ``driftray`` package
next to ``perfbench/``.  Inputs come from ``driftray.fixtures`` with the
seed and are cached under ``perfbench/_work/``.  Ray runs in this process
with 2 logical CPUs (at 1, ``run_validation`` can deadlock: NOTES.md).

Set-up (``ray.init`` → warm-up → the workload's base step) is done
``SETUP_REPEATS`` times, shutting Ray down in between, and ``setup_s`` is
the median.  Then one client runs ops back to back (a closed loop) until
``--seconds`` have passed, checks every op's output against ground truth
and prints each metric with its unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs an
untraced warm-up op and then pairs of one traced and one untraced op, in
alternating order; traced ops record a span per call into each layer
(tracing.py) and the run reports the per-layer metrics, including the
tracing overhead (traced minus untraced op time, median over the pairs).
Spans are written to ``perfbench/_work/results/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RAY_CPUS = 2
SETUP_REPEATS = 3
MIN_OPS = 3              # the run goes on past --seconds until this many ops
TRACE_PAIRS = 2          # ... and a traced run until this many op pairs
OP_TIMEOUT_S = 60.0      # an op slower than this counts as failed
RUN_BUDGET_S = 110.0     # no new op starts after this much wall time, so a
                         # run (traced: plus its probes) ends within 180 s

# metrics of a --trace 0 run; GATED ones go in the final JSON line (and
# BENCHMARK.json), the rest are printed and kept in the result file: the
# wall-time ones spread more from run to run on a shared VM than any
# allowed bound, and failed_op_share is 0 (NOTES.md)
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rows_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "failed_op_share": "ratio",
    "cpu_ms_per_row": "ms",
}
GATED = ("setup_s", "peak_rss_mb", "cpu_ms_per_row")


def nproc() -> int:
    """What ``nproc`` prints: ``OMP_NUM_THREADS`` when set, else the CPUs
    this process may run on."""
    try:
        return int(os.environ["OMP_NUM_THREADS"])
    except (KeyError, ValueError):
        return len(os.sched_getaffinity(0))


def tail(values: list[float]) -> tuple[float, float, int]:
    """Op time at the highest percentile with ≥10 samples beyond it:
    ``(value, percentile, samples beyond)``.  Below 20 ops that percentile
    is under the median, so the slowest op is reported instead, with 0
    samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n < 20:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def iqm(values: list[float]) -> float:
    """Mean of the middle half: drops the lowest and highest quarter of the
    values (at least one each from three on), so one stalled op does not
    move it, and averages the rest, so the 10 ms steps of the kernel's CPU
    clock do not show."""
    s = sorted(values)
    k = max(len(s) // 4, 1) if len(s) >= 3 else 0
    return statistics.fmean(s[k:len(s) - k])


def is_traced(i: int) -> bool:
    """Whether op ``i`` of a traced run is traced.  Op 0 is an untraced
    warm-up; after it ops come in traced/untraced pairs whose order
    alternates (traced first in pairs 0, 2, …), so a slowdown tied to an
    op's position in the Ray session does not read as tracing overhead."""
    if i == 0:
        return False
    pair, second = divmod(i - 1, 2)
    return bool(second) == bool(pair % 2)


def min_ops(trace: bool) -> int:
    return 1 + 2 * TRACE_PAIRS if trace else MIN_OPS


def start_ray(work: str, cpus: int = RAY_CPUS) -> None:
    import ray
    from ray.data import DataContext

    tmp = os.path.join(work, "ray")
    # Ray's socket paths must stay under the AF_UNIX limit; with a deep
    # checkout fall back to Ray's default temp dir
    ray.init(num_cpus=cpus, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=512 * 2**20,
             _temp_dir=tmp if len(tmp) <= 48 else None)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def stop_ray() -> None:
    """``ray.shutdown`` and wait until every process Ray started has ended."""
    import ray

    from procstat import descendants, wait_gone

    pids = descendants()
    ray.shutdown()
    wait_gone(pids)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers as L
    import tracing as T
    import workloads as W
    from procstat import TreeSampler, cpu_times, steal_share

    t_run = time.perf_counter()
    work = os.path.join(HERE, "_work")
    wl = W.WORKLOADS[workload](seed, os.path.join(work, workload))
    wl.prepare()

    setups = []
    for k in range(SETUP_REPEATS):
        if k:
            stop_ray()
        t0 = time.perf_counter()
        start_ray(work)
        t1 = time.perf_counter()
        warm = W.warm_up()
        steps = wl.setup()
        setups.append({"setup_s": time.perf_counter() - t0, "setup.ray_init_s": t1 - t0,
                       "setup.warmup_s": warm,
                       "setup.base_validate_s": steps["base_validate_s"]})

    tracer = T.Tracer()
    ops, layer_rows, failures = [], [], {}
    dims = set(getattr(wl, "dims", {}).values())
    with TreeSampler() as proc:
        cpu0 = cpu_times()
        t_start = time.perf_counter()
        i = 0
        while True:
            traced = trace and is_traced(i)
            proc.active.set()
            c0 = proc.cpu_seconds()
            if traced:
                tracer.install()
                with tracer.op(i):
                    r = wl.op(i)
                tracer.uninstall()
            else:
                r = wl.op(i)
            cpu = proc.cpu_seconds() - c0
            proc.active.clear()
            if r.wall_s > OP_TIMEOUT_S:
                r.failures.append(f"timed out: {r.wall_s:.1f} s > {OP_TIMEOUT_S} s")
            ops.append({"op": i, "traced": traced, "wall_s": r.wall_s, "rows": r.rows,
                        "cpu_s": cpu, "stages_s": r.stages_s, "failures": r.failures,
                        "false_alarms": r.false_alarms})
            for f in r.failures:
                failures[f] = failures.get(f, 0) + 1
            if traced:
                layer_rows.append(post_op(tracer, wl, i, r.rows, dims))
            wl.cleanup(i)
            i += 1
            now = time.perf_counter()
            # a traced run stops only after a whole traced/untraced pair
            if trace and (i - 1) % 2:
                continue
            if now - t_start >= seconds and i >= min_ops(trace):
                break
            if now - t_run >= RUN_BUDGET_S and i >= (3 if trace else 1):
                break   # a slow host: fewer ops, but the run ends in time
        steal = steal_share(cpu0, cpu_times())
        if trace:
            layer_rows += cross_layer_probes(tracer, wl, seed, work)
    stop_ray()

    walls = [o["wall_s"] for o in ops if not o["traced"]]
    n_failed = sum(1 for o in ops if o["failures"])
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "ray_logical_cpus": RAY_CPUS, "nproc": nproc(),
        "cpus_available": len(os.sched_getaffinity(0)), "sizes": wl.sizes,
        "ops": len(ops), "failed_ops": n_failed, "failures": failures,
        "false_alarm_windows": sorted({w for o in ops for w in o["false_alarms"]}),
        "cpu_steal_share": steal, "setup_repeats": setups, "op_log": ops,
    }
    setup = {k: statistics.median(s[k] for s in setups) for k in setups[0]}
    if not trace:
        value, pct, beyond = tail(walls)
        result["tail"] = {"percentile": pct, "samples_beyond": beyond, "samples": len(walls)}
        result["metrics"] = {
            "setup_s": setup["setup_s"],
            "peak_rss_mb": proc.peak_mb,
            "rows_per_s": statistics.median(o["rows"] / o["wall_s"] for o in ops),
            "latency_p50_s": statistics.median(walls),
            "latency_tail_s": value,
            "failed_op_share": n_failed / len(ops),
            "cpu_ms_per_row": iqm([1e3 * o["cpu_s"] / max(o["rows"], 1) for o in ops]),
        }
        result["units"] = dict(END_TO_END)
        result["gated"] = list(GATED)
        return result

    per = {}
    for name in L.PER_LAYER:
        vals = [row[name] for row in layer_rows if name in row]
        if name in setup:
            vals = [setup[name]]
        if vals:
            per[name] = statistics.median(vals)
    pairs = [(ops[j], ops[j + 1]) for j in range(1, len(ops) - 1, 2)]
    per["trace.overhead_s"] = statistics.median(
        (a["wall_s"] - b["wall_s"]) * (1 if a["traced"] else -1) for a, b in pairs)
    result["stage_diff_s"] = [row["trace.stage_diff"] for row in layer_rows
                              if "trace.stage_diff" in row]
    missing = [n for n in L.PER_LAYER if n not in per]
    if missing:
        raise RuntimeError(f"traced run measured no value for {missing}")
    result["metrics"] = per
    result["units"] = {n: L.PER_LAYER[n][0] for n in per}
    result["gated"] = list(per)
    os.makedirs(os.path.join(work, "results"), exist_ok=True)
    spans = os.path.join(work, "results", f"spans-{workload}-{seed}.jsonl")
    tracer.write(spans)
    result["spans_file"] = os.path.relpath(spans, ROOT)
    return result


def post_op(tracer, wl, i: int, rows: int, dims: set[str]) -> dict:
    """Per-layer values of traced op ``i``, measured before its outputs
    are removed; ``aggregate_profiles`` is timed here for workloads whose
    op does not call it."""
    import layers as L
    import tracing as T
    from driftray import pipeline as P

    row = L.op_layers(tracer, i, rows, dims)
    out = getattr(wl, "last_out", None)
    if out and "pipeline.aggregate_profiles_s" not in row:
        tracer.install()
        with tracer.op(f"{i}/aggregate"):
            P.aggregate_profiles(out)
        tracer.uninstall()
        row["pipeline.aggregate_profiles_s"] = T.total(
            tracer.op_spans(f"{i}/aggregate"), "pipeline.aggregate_profiles")
    return row


def cross_layer_probes(tracer, wl, seed: int, work: str) -> list[dict]:
    """Layers the workload's own ops do not reach, measured on small
    inputs so every traced run reports every per-layer metric: one traced
    ``run_validation`` (or ``detect_stream``), the check kernel on one
    in-memory batch, the Bloom filter on the planted orphan keys, and the
    sensor sort."""
    import pyarrow.parquet as pq
    import ray.data as rd

    import layers as L
    import workloads as W
    from driftray import pipeline as P

    rows = []
    table = wl if isinstance(wl, W.FullScan) else W.FullScan(
        seed, os.path.join(work, "probe"), **W.PROBE_TABLE)
    sensor = wl if isinstance(wl, W.SensorStream) else W.SensorStream(
        seed, os.path.join(work, "probe"), readings=W.PROBE_READINGS)
    for probe in (p for p in (table, sensor) if p is not wl):
        probe.prepare()
        probe.setup()
        tracer.install()
        with tracer.op(f"probe/{probe.name}"):
            r = probe.op("probe")
        tracer.uninstall()
        if r.failures:
            raise RuntimeError(f"{probe.name} probe op failed: {r.failures}")
        rows.append(post_op(tracer, probe, f"probe/{probe.name}", r.rows,
                            set(getattr(probe, "dims", {}).values())))
        probe.cleanup("probe")

    ds = rd.read_parquet(sensor.path)
    t0 = time.perf_counter()
    for cols in (["timestamp", "unusual", "type"], ["timestamp", "unusual"]):
        ds.select_columns(cols).sort("timestamp").materialize()
    rows.append({"pipelines.sensor.sort_s": time.perf_counter() - t0})

    batch = pq.read_table(table.input_path).slice(0, 2000)
    membership = {i: P.build_membership(pq.read_table(table.dims[fk.dim_table]),
                                        fk.dim_columns, use_bloom=True)
                  for i, fk in enumerate(table.spec.foreign_keys)}
    kern = L.kernel_probe(table.spec, batch, P.infer_hist_edges(table.input_path, table.spec),
                          membership)
    rows.append(kern)
    tags = pq.read_table(os.path.join(table.data, "repo_files_expected.parquet"))
    data = pq.read_table(table.input_path, columns=["repo", "commit"])
    orphan = (tags["_orphan_repo"].to_numpy(zero_copy_only=False)
              | tags["_bad_commit"].to_numpy(zero_copy_only=False))
    rows.append(L.bloom_probe(table.dims, data.filter(orphan)))
    truth = table.truth
    rows.append({"bloom.false_positive_share":
                 truth["bloom_false_positives"] / max(truth["bloom_planted"], 1)})
    # the sketch bytes of a window add the window's HLL partial to its
    # profile sketches
    for row in rows:
        if "sketches.bytes_per_window" in row:
            row["sketches.bytes_per_window"] += kern["hll_bytes"]
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["full_scan", "append_window", "sensor_stream"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "driftray", "pipeline.py")):
        print(f"perfbench: no driftray package at {ROOT}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, HERE]
    # Ray workers import the engine and the benchmark's task functions
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(os.path.join(HERE, "_work", "results"), exist_ok=True)
    with open(os.path.join(HERE, "_work", "results",
                           f"{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(result, f, indent=1, default=str)

    print(f"workload {args.workload}  seed {args.seed}  ray_logical_cpus {RAY_CPUS}  "
          f"nproc {result['nproc']}  cpus_available {result['cpus_available']}  sizes {json.dumps(result['sizes'])}")
    print(f"ops {result['ops']}  failed {result['failed_ops']}  "
          f"cpu_steal_share {result['cpu_steal_share']:.3f}")
    if "tail" in result:
        t = result["tail"]
        print(f"latency_tail_s is p{t['percentile']:.1f} of {t['samples']} ops "
              f"({t['samples_beyond']} beyond it)")
    if result["false_alarm_windows"]:
        print(f"drift false alarm on clean windows {result['false_alarm_windows']} "
              "(NOTES.md, defect 5)")
    for reason, n in sorted(result["failures"].items()):
        print(f"FAILED x{n}: {reason}")
    for name, value in result["metrics"].items():
        print(f"{name} {value:.6g} {result['units'][name]}")
    print(json.dumps({
        "correct": result["failed_ops"] == 0,
        "attempted": result["ops"],
        "failed": result["failed_ops"],
        "metrics": {n: {"value": result["metrics"][n], "unit": result["units"][n]}
                    for n in result["gated"]},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
