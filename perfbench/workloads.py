"""The benchmark's workloads: inputs from a seed, one op, its output check.

Every workload drives driftray only through its public functions
(``driftray.pipeline``, ``driftray.checks``, ``driftray.pipelines.sensor``,
``driftray.fixtures``), one op at a time from one client (a closed loop).
Inputs come from ``driftray.fixtures`` with the run's seed and are cached
per seed under the work directory; generating them is not part of set-up.

``prepare()`` makes the inputs and their ground truth, ``setup()`` runs
after each ``ray.init`` and returns its step times, ``op(i)`` runs and
times one op and then checks its output.  An op that raises or whose
output disagrees with the ground truth is a failed op; the run goes on.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

# every module is reached through its attribute at call time, so the
# tracer's wrappers (tracing.py) see the calls
from driftray import checks as C
from driftray import fixtures as F
from driftray import pipeline as P
from driftray.pipelines import sensor as S
from driftray.spec import repo_files_spec

KEY = ["repo", "path", "commit"]

# input sizes (recorded in BENCHMARK.json and every result)
FULL_SCAN = {"rows": 12_000, "window_rows": 4_000}
APPEND = {"base_windows": 4, "window_rows": 2_000, "drifted_append": 1}
SENSOR = {"readings": 40_000}
# the small table the sensor workload's traced run validates so that every
# pipeline layer is measured in every traced run
PROBE_TABLE = {"rows": 2_000, "window_rows": 1_000}
PROBE_READINGS = 8_000


@dataclass
class OpResult:
    wall_s: float
    rows: int
    failures: list[str] = field(default_factory=list)
    false_alarms: list[int] = field(default_factory=list)   # clean windows flagged
    stages_s: dict = field(default_factory=dict)   # the engine's own stage times


# ---------------------------------------------------------------------------
# repo_files ground truth
# ---------------------------------------------------------------------------


def _bloom_present(dim: pa.Table, cols: list[str], rows: pa.Table) -> np.ndarray:
    """Which ``rows`` keys the engine's Bloom filter over ``dim`` reports
    present — the same filter ``run_validation(use_bloom=True)`` builds."""
    bf = P.build_membership(dim, cols, use_bloom=True)
    return bf.contains(C.hash_keys(rows, cols))


def window_truth(tbl: pa.Table, repos: pa.Table, commits: pa.Table) -> dict:
    """Expected per-window counters of a generated ``repo_files`` slice
    (the tag mapping of the engine's own pipeline tests).  Referential
    counts exclude the planted keys the Bloom filter reports present:
    a Bloom false positive hides a violation by design."""
    df = tbl.select(["window_id", "_null_path", "_dup_key", "_bad_sha", "_bad_lang",
                     "_orphan_repo", "_bad_commit"]).to_pandas()
    # a planted duplicate copies another row's whole key, path included,
    # over a planted null path
    df["null_path"] = df["_null_path"] & ~df["_dup_key"]
    fp_repo = _bloom_present(repos, ["repo"], tbl) & df["_orphan_repo"].to_numpy()
    bad_pair = (df["_orphan_repo"] | df["_bad_commit"]).to_numpy()
    fp_pair = _bloom_present(commits, ["repo", "commit"], tbl) & bad_pair
    df["ref_repo"] = df["_orphan_repo"].to_numpy() & ~fp_repo
    df["ref_pair"] = bad_pair & ~fp_pair
    out = {}
    for w, g in df.groupby("window_id"):
        out[str(int(w))] = {
            "rows": len(g),
            "completeness|path": int(g["null_path"].sum()),
            "sha256|content": int(g["_bad_sha"].sum()),
            "accepted|lang": int(g["_bad_lang"].sum()),
            "referential|repo": int(g["ref_repo"].sum()),
            "referential|repo|commit": int(g["ref_pair"].sum()),
        }
    planted = int(df["_orphan_repo"].sum() + bad_pair.sum())
    return {"windows": out, "bloom_planted": planted,
            "bloom_false_positives": int(fp_repo.sum() + fp_pair.sum())}


def extra_key_rows(keys: pd.DataFrame) -> int:
    """Rows beyond the first per (repo, path, commit), nulls equal — the
    exact answer the table-level uniqueness check must give."""
    return int(keys.duplicated(subset=KEY, keep="first").sum())


def check_window(res, want: dict, drifted: bool) -> list[str]:
    """Failures of one window's verdict.  A drifted window the detector
    misses fails; a clean window it flags is a false alarm, which
    ``false_alarms`` reports instead (NOTES.md, defect 5)."""
    bad = []
    got = dict(res.counters)
    for k, v in want.items():
        g = res.n_rows if k == "rows" else int(got.get(k, 0))
        if g != v:
            bad.append(f"window {res.window_id}: {k} = {g}, expected {v}")
    if drifted and not res.drift_detected:
        bad.append(f"window {res.window_id}: drifted window not detected")
    return bad


def false_alarms(results, drifted: int) -> list[int]:
    return sorted(r.window_id for r in results
                  if r.drift_detected and r.window_id != drifted)


def check_uniqueness(out_dir: str, want_extra: int) -> list[str]:
    rep = P.load_table_report(out_dir)
    got = rep.get("extra_rows")
    if got != want_extra:
        return [f"table uniqueness extra_rows = {got}, expected {want_extra}"]
    return []


def stages(out_dir: str) -> dict:
    """``stages_s`` of the last ``run_validation`` into ``out_dir``."""
    with open(os.path.join(out_dir, "run_lineage.jsonl")) as f:
        return json.loads(f.read().splitlines()[-1])["stages_s"]


def _failure(exc: BaseException) -> str:
    last = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"raised {type(exc).__name__}: {exc} "
            f"at {os.path.basename(last.filename)}:{last.lineno}")


# ---------------------------------------------------------------------------
# full_scan
# ---------------------------------------------------------------------------


class FullScan:
    """One cold ``run_validation(use_bloom=True, baseline_path=…)`` over every
    window of a content-heavy ``repo_files`` table, into a fresh out_dir."""

    name = "full_scan"

    def __init__(self, seed: int, work: str, rows: int = FULL_SCAN["rows"],
                 window_rows: int = FULL_SCAN["window_rows"]) -> None:
        self.seed = seed
        self.work = work
        self.rows = rows
        self.sizes = {"rows": rows, "window_rows": window_rows}
        # one drifted window, never window 0 (the baseline's source)
        self.drifted = 1 + seed % (rows // window_rows - 1)
        self.cfg = F.RepoFilesConfig(seed=seed, window_rows=window_rows,
                                     drifted_windows=(self.drifted,))
        self.data = os.path.join(work, "cache", f"repo_files-{seed}-{rows}-{window_rows}")
        self.spec = repo_files_spec()

    @property
    def input_path(self) -> str:
        return os.path.join(self.data, "repo_files.parquet")

    @property
    def dims(self) -> dict[str, str]:
        return {"repos": os.path.join(self.data, "repos.parquet"),
                "commits": os.path.join(self.data, "commits.parquet")}

    def prepare(self) -> None:
        done = os.path.join(self.data, "_COMPLETE")
        if not os.path.exists(done):
            shutil.rmtree(self.data, ignore_errors=True)
            F.write_repo_files(self.data, self.rows, self.cfg)
            open(done, "w").close()
        tags = pq.read_table(os.path.join(self.data, "repo_files_expected.parquet"))
        data = pq.read_table(self.input_path, columns=KEY + ["window_id"])
        tbl = pa.Table.from_pandas(pd.concat(
            [tags.to_pandas(), data.select(KEY).to_pandas()], axis=1))
        self.truth = window_truth(tbl, pq.read_table(self.dims["repos"]),
                                  pq.read_table(self.dims["commits"]))
        self.truth["extra_rows"] = extra_key_rows(data.to_pandas())

    def setup(self) -> dict[str, float]:
        """Validate the clean reference window 0 and promote it to the
        baseline every op compares against."""
        t0 = time.perf_counter()
        base_out = os.path.join(self.work, "base")
        shutil.rmtree(base_out, ignore_errors=True)
        P.run_validation(self.input_path, base_out, self.spec, windows=[0],
                         dim_paths=self.dims, use_bloom=True, check_uniqueness=False)
        self.baseline = os.path.join(self.work, "baseline.parquet")
        P.promote_baseline(base_out, 0, self.baseline)
        return {"base_validate_s": time.perf_counter() - t0}

    def op(self, i: int) -> OpResult:
        out = os.path.join(self.work, f"op-{i}")
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            results = P.run_validation(self.input_path, out, self.spec,
                                       dim_paths=self.dims, use_bloom=True,
                                       baseline_path=self.baseline)
        except Exception as e:  # an op that raises is a failed op
            return OpResult(time.perf_counter() - t0, 0, [_failure(e)])
        wall = time.perf_counter() - t0
        self.last_out = out
        return OpResult(wall, sum(r.n_rows for r in results), self.check(results, out),
                        false_alarms(results, self.drifted), stages(out))

    def check(self, results, out: str) -> list[str]:
        want = self.truth["windows"]
        bad = []
        by_w = {r.window_id: r for r in results}
        if sorted(by_w) != sorted(int(w) for w in want):
            bad.append(f"windows validated {sorted(by_w)}, expected {sorted(want)}")
        for w, r in by_w.items():
            if str(w) in want:
                bad += check_window(r, want[str(w)], w == self.drifted)
        return bad + check_uniqueness(out, self.truth["extra_rows"])

    def cleanup(self, i: int) -> None:
        shutil.rmtree(os.path.join(self.work, f"op-{i}"), ignore_errors=True)


# ---------------------------------------------------------------------------
# append_window
# ---------------------------------------------------------------------------


class AppendWindow:
    """Closed loop over a growing table: each op lands one new window file,
    re-runs ``run_validation`` on the same out_dir with the baseline, then
    merges the table profile with ``aggregate_profiles``."""

    name = "append_window"
    sizes = APPEND

    def __init__(self, seed: int, work: str) -> None:
        self.seed = seed
        self.work = work
        self.base_windows = APPEND["base_windows"]
        self.drifted = self.base_windows + APPEND["drifted_append"]
        self.cfg = F.RepoFilesConfig(seed=seed, window_rows=APPEND["window_rows"],
                                     drifted_windows=(self.drifted,))
        self.data = os.path.join(work, "cache", f"append-{seed}")
        self.spec = repo_files_spec()

    @property
    def dims(self) -> dict[str, str]:
        return {"repos": os.path.join(self.data, "repos.parquet"),
                "commits": os.path.join(self.data, "commits.parquet")}

    def _window(self, w: int) -> pa.Table:
        path = os.path.join(self.data, f"window-{w:05d}.parquet")
        if not os.path.exists(path):
            wr = APPEND["window_rows"]
            pq.write_table(F.repo_files_batch(np.arange(w * wr, (w + 1) * wr), self.cfg),
                           path + ".tmp")
            os.replace(path + ".tmp", path)
        return pq.read_table(path)

    def prepare(self) -> None:
        os.makedirs(self.data, exist_ok=True)
        if not os.path.exists(self.dims["commits"]):
            repos, commits = F.dimensions(self.cfg)
            pq.write_table(repos, self.dims["repos"])
            pq.write_table(commits, self.dims["commits"])
        self.repos = pq.read_table(self.dims["repos"])
        self.commits = pq.read_table(self.dims["commits"])
        for w in range(self.base_windows + 1):
            self._window(w)

    def _land(self, w: int) -> None:
        tbl = self._window(w)
        engine = tbl.select([c for c in tbl.column_names if not c.startswith("_")])
        path = os.path.join(self.table, f"part-{w:05d}.parquet")
        pq.write_table(engine, path + ".tmp")
        os.replace(path + ".tmp", path)
        truth = window_truth(tbl, self.repos, self.commits)["windows"][str(w)]
        self.truth[w] = truth
        self.keys.append(tbl.select(KEY).to_pandas())

    def setup(self) -> dict[str, float]:
        """Validate the base table and promote window 0 to the baseline."""
        self.table = os.path.join(self.work, "table")
        self.out = os.path.join(self.work, "out")
        for d in (self.table, self.out):
            shutil.rmtree(d, ignore_errors=True)
        os.makedirs(self.table)
        self.truth: dict[int, dict] = {}
        self.keys: list[pd.DataFrame] = []
        for w in range(self.base_windows):
            self._land(w)
        t0 = time.perf_counter()
        P.run_validation(self.table, self.out, self.spec, dim_paths=self.dims,
                         use_bloom=True)
        self.baseline = os.path.join(self.work, "baseline.parquet")
        P.promote_baseline(self.out, 0, self.baseline)
        self.next_window = self.base_windows
        return {"base_validate_s": time.perf_counter() - t0}

    def op(self, i: int) -> OpResult:
        w = self.next_window
        self.next_window += 1
        self._window(w)                      # generated before the clock starts
        t0 = time.perf_counter()
        self._land(w)                        # latency runs from the file landing
        try:
            results = P.run_validation(self.table, self.out, self.spec,
                                       dim_paths=self.dims, use_bloom=True,
                                       baseline_path=self.baseline)
        except Exception as e:
            return OpResult(time.perf_counter() - t0, 0, [_failure(e)])
        bad = []
        try:   # the verdicts are still checked when the merge raises
            P.aggregate_profiles(self.out)
        except Exception as e:
            bad.append(_failure(e))
        wall = time.perf_counter() - t0
        by_w = {r.window_id: r for r in results}
        if sorted(by_w) != [w]:
            bad.append(f"windows validated {sorted(by_w)}, expected [{w}]")
        if w in by_w:
            bad += check_window(by_w[w], self.truth[w], w == self.drifted)
        bad += check_uniqueness(self.out, extra_key_rows(pd.concat(self.keys)))
        return OpResult(wall, sum(r.n_rows for r in results), bad,
                        false_alarms(results, self.drifted), stages(self.out))

    def cleanup(self, i: int) -> None:
        pass


# ---------------------------------------------------------------------------
# sensor_stream
# ---------------------------------------------------------------------------


def reference_alerts(flags, window_size: int = 50, threshold: float = 0.10) -> list:
    """The reference streaming loop: the window grows until a drift fires,
    the ratio divides by the constant window size, and only a drift resets
    the window.  The window's unusual count is kept as it grows instead of
    re-summed each row; the verdicts are the same."""
    alerts, n, count = [], 0, 0
    for i, flag in enumerate(flags):
        n += 1
        count += bool(flag)
        if n >= window_size:
            ratio = count / window_size
            if ratio > threshold:
                alerts.append((i, count, ratio))
                n = count = 0
    return alerts


class SensorStream:
    """``pipelines.sensor.detect_stream`` over seeded sensor readings, once
    per sensor type and once as one global stream (one op = both)."""

    name = "sensor_stream"

    def __init__(self, seed: int, work: str, readings: int = SENSOR["readings"]) -> None:
        self.seed = seed
        self.work = work
        self.readings = readings
        self.sizes = {"readings": readings}
        self.path = os.path.join(work, "cache", f"sensor-{seed}-{self.readings}.parquet")

    def prepare(self) -> None:
        if not os.path.exists(self.path):
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            pq.write_table(F.sensor_readings(self.readings, seed=self.seed), self.path + ".tmp")
            os.replace(self.path + ".tmp", self.path)

    def setup(self) -> dict[str, float]:
        """Replay the reference loop once per stream: the ops' ground truth."""
        t0 = time.perf_counter()
        t = pq.read_table(self.path, columns=["timestamp", "type", "unusual"]).to_pandas()
        t = t.sort_values("timestamp", kind="stable")
        t["unusual"] = t["unusual"].fillna(False).astype(bool)
        self.want = {"type": {str(g): reference_alerts(grp["unusual"].to_numpy())
                              for g, grp in t.groupby("type")},
                     "global": {"": reference_alerts(t["unusual"].to_numpy())}}
        return {"base_validate_s": time.perf_counter() - t0}

    def op(self, i: int) -> OpResult:
        import ray.data as rd

        t0 = time.perf_counter()
        try:
            per_type = S.detect_stream(rd.read_parquet(self.path), group_col="type")
            whole = S.detect_stream(rd.read_parquet(self.path))
        except Exception as e:
            return OpResult(time.perf_counter() - t0, 0, [_failure(e)])
        wall = time.perf_counter() - t0
        bad = []
        for mode, got in (("type", per_type), ("global", whole)):
            want = self.want[mode]
            if sorted(got) != sorted(want):
                bad.append(f"{mode}: partitions {sorted(got)}, expected {sorted(want)}")
                continue
            for g, verdicts in got.items():
                alerts = [(v.end_row, v.unusual_count, v.unusual_ratio)
                          for v in verdicts if v.drift]
                if alerts != want[g]:
                    bad.append(f"{mode} {g!r}: {len(alerts)} drift verdicts differ from "
                               f"the reference loop's {len(want[g])}")
        return OpResult(wall, 2 * self.readings, bad)

    def cleanup(self, i: int) -> None:
        pass


WORKLOADS = {w.name: w for w in (FullScan, AppendWindow, SensorStream)}


def warm_up() -> float:
    """Start the two Ray workers and import the engine in them."""
    import ray.data as rd

    t0 = time.perf_counter()
    rd.range(2, override_num_blocks=2).map_batches(_import_engine).materialize()
    return time.perf_counter() - t0


def _import_engine(batch):
    import driftray.pipeline  # noqa: F401

    return batch
