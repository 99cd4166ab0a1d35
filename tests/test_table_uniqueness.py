"""Table-wide key uniqueness over the kernel's persisted key-hash runs:
appends and partial runs give the same table report as a cold run, and
the check needs no actor pool (it finishes at ``num_cpus=1``)."""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from driftray.fixtures import RepoFilesConfig, repo_files_batch, write_repo_files
from driftray.pipeline import load_table_report, run_validation
from driftray.spec import repo_files_spec

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEY = ["repo", "path", "commit"]


def extra_rows(tables) -> int:
    """Rows beyond the first per key, nulls equal (pandas ``duplicated``)."""
    keys = pa.concat_tables([t.select(KEY) for t in tables]).to_pandas()
    return int(keys.duplicated(subset=KEY, keep="first").sum())


def _engine_columns(t: pa.Table) -> pa.Table:
    return t.select([c for c in t.column_names if not c.startswith("_")])


def test_numpy_duplicate_values_sorted():
    from driftray.ops.relational import duplicate_values_sorted

    v = np.array([5, -3, 9, 5, 7, -3, -3], dtype=np.int64)
    assert duplicate_values_sorted(v).tolist() == [-3, 5]
    assert len(duplicate_values_sorted(np.arange(10, dtype=np.int64))) == 0
    assert len(duplicate_values_sorted(np.empty(0, np.int64))) == 0


def test_appended_duplicate_key_is_counted(ray_session, tmp_path):
    cfg = RepoFilesConfig(window_rows=500)
    table = tmp_path / "table"
    table.mkdir()
    parts = []
    for w in range(2):
        t = _engine_columns(repo_files_batch(np.arange(w * 500, (w + 1) * 500), cfg))
        pq.write_table(t, str(table / f"part-{w}.parquet"))
        parts.append(t)
    out = str(tmp_path / "out")
    spec = repo_files_spec()
    run_validation(str(table), out, spec)
    first = load_table_report(out)
    assert first["extra_rows"] == extra_rows(parts)
    assert first["windows"] == [0, 1]
    assert os.path.exists(os.path.join(out, "window=0", "key_hashes.npy"))

    # window 2 holds one row: a copy of an existing key from window 0
    copy = parts[0].slice(7, 1)
    copy = copy.set_column(copy.schema.get_field_index("window_id"), "window_id",
                           pa.array([2], copy.schema.field("window_id").type))
    pq.write_table(copy, str(table / "part-2.parquet"))
    results = run_validation(str(table), out, spec)
    assert [r.window_id for r in results] == [2]
    second = load_table_report(out)
    assert second["extra_rows"] == first["extra_rows"] + 1
    assert second["windows"] == [0, 1, 2]


def _report(out: str) -> tuple[dict, list]:
    viol = pq.read_table(os.path.join(out, "table", "uniqueness_violations.parquet"))
    return load_table_report(out), sorted(zip(viol["row_ref"].to_pylist(),
                                              viol["detail"].to_pylist()))


def test_partial_then_rest_equals_cold_run(ray_session, tmp_path):
    d = str(tmp_path / "data")
    write_repo_files(d, 3000, RepoFilesConfig(window_rows=1000))
    inp = os.path.join(d, "repo_files.parquet")
    spec = repo_files_spec()

    part = str(tmp_path / "part")
    run_validation(inp, part, spec, windows=[0, 1])
    data = pq.read_table(inp, columns=KEY + ["window_id"])
    w01 = data.filter(pc.less(data["window_id"], 2))
    assert load_table_report(part)["extra_rows"] == extra_rows([w01])
    run_validation(inp, part, spec)

    cold = str(tmp_path / "cold")
    run_validation(inp, cold, spec)
    assert _report(part) == _report(cold)
    assert load_table_report(cold)["extra_rows"] == extra_rows([data])
    assert load_table_report(cold)["windows"] == [0, 1, 2]


ONE_CPU_SCRIPT = """
import json, sys
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext; DataContext.get_current().enable_progress_bars = False
from driftray.pipeline import load_table_report, run_validation
from driftray.spec import repo_files_spec
run_validation({input!r}, {out!r}, repo_files_spec(), dim_paths={dims!r}, use_bloom=True)
print(json.dumps(load_table_report({out!r})))
ray.shutdown()
"""


def test_run_validation_finishes_at_one_cpu(tmp_path):
    """20k rows in 5k-row windows at ``num_cpus=1`` within 180 s of wall
    time: no stage may hold the only CPU while its feeders wait."""
    d = str(tmp_path / "data")
    write_repo_files(d, 20_000, RepoFilesConfig(window_rows=5_000))
    inp = os.path.join(d, "repo_files.parquet")
    dims = {"repos": os.path.join(d, "repos.parquet"),
            "commits": os.path.join(d, "commits.parquet")}
    code = ONE_CPU_SCRIPT.format(repo=REPO, input=inp, out=str(tmp_path / "out"),
                                 dims=dims)
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=REPO,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        pytest.fail("run_validation at num_cpus=1 did not finish within 180 s")
    assert proc.returncode == 0
    report = json.loads(stdout.strip().splitlines()[-1])
    assert report["extra_rows"] == extra_rows([pq.read_table(inp, columns=KEY)])
