"""A window's outputs are a function of its rows alone: the kernel keeps
no state across batches, and ``pipeline.merge_findings`` reduces the
findings of any split of the rows to the same counters, violation sample
and verdicts.  The property test holds ``run_validation``'s outputs to a
cold run over one file holding one row group, for drawn layouts, chunk
sizes, partial runs, windows appended between runs and windows whose
rows interleave inside row groups."""

import json
import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftray.checks import ValidationKernel
from driftray.fixtures import RepoFilesConfig, dimensions, repo_files_batch, write_repo_files
from driftray.pipeline import (build_membership, load_lineage, merge_findings,
                               run_validation)
from driftray.spec import ColumnSpec, TableSpec, repo_files_spec

# planted violations at rates a few hundred rows show
CFG = RepoFilesConfig(window_rows=60, content_median=256, p_null_path=0.04,
                      p_dup_key=0.04, p_orphan_repo=0.03, p_bad_commit=0.03,
                      p_bad_sha=0.03, p_bad_lang=0.03, p_bad_path_fmt=0.03)
N_ROWS = 300          # windows 0-4


def _write(table: pa.Table, directory: str, cuts, row_group_size: int,
           prefix: str = "part") -> None:
    """``table`` as one file per run of rows between ``cuts``."""
    os.makedirs(directory, exist_ok=True)
    bounds = [0, *sorted(cuts), table.num_rows]
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        pq.write_table(table.slice(a, b - a),
                       os.path.join(directory, f"{prefix}-{i:03d}.parquet"),
                       row_group_size=row_group_size)


def _interleave(table: pa.Table) -> pa.Table:
    """``table``'s rows dealt round-robin by window (row ``i`` of each
    window, then row ``i + 1``), so a row group holds each of its windows
    in many runs of rows and the kernel gathers them by mask."""
    pos = np.arange(table.num_rows) % CFG.window_rows
    return table.take(np.argsort(pos, kind="stable"))


def _outputs(out_dir: str) -> dict:
    """Every output file under ``out_dir`` by relative path: bytes, or the
    parsed ``lineage.json`` without ``wall_s`` and the profile sketches.
    ``run_lineage.jsonl``, ``alerts/`` and ``profiles.parquet`` are left
    out: the first two hold timings, and the t-digest in a profile
    depends on how its rows were split."""
    files = {}
    for root, dirs, names in os.walk(out_dir):
        dirs[:] = [d for d in dirs if d != "alerts"]
        for name in names:
            if name in ("run_lineage.jsonl", "profiles.parquet"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir)
            with open(path, "rb") as f:
                data = f.read()
            if name == "lineage.json" and os.path.basename(root) != "table":
                data = json.loads(data)
                data.pop("wall_s")
                data.pop("profiles")
            files[rel] = data
    return files


def test_missing_when_column_config_finding_is_layout_free(ray_session, tmp_path):
    """A rule gated on an absent column reports ``config`` 1 in every
    window, whether the windows share one row group or each spans two."""
    spec = TableSpec(name="t", columns=[
        ColumnSpec("v", min_value=0, max_value=10, when=("gate", "x"))])
    t = pa.table({"window_id": pa.array(np.repeat([0, 1, 2], 4), pa.int64()),
                  "v": pa.array(np.arange(12) * 2, pa.int64())})
    verdicts = []
    for row_group_size in (12, 2):
        src = str(tmp_path / f"rg{row_group_size}")
        _write(t, src, [], row_group_size)
        res = run_validation(src, str(tmp_path / f"out{row_group_size}"), spec)
        assert [r.counters["config|v?gate=x"] for r in res] == [1, 1, 1]
        assert [r.violations.to_pylist() for r in res] == [[{
            "check": "config", "column": "v?gate=x", "row_ref": "*",
            "detail": "when-column 'gate' missing from batch; conditional rule disabled",
        }]] * 3
        verdicts.append([{k: v for k, v in r.verdict_row().items() if k != "wall_s"}
                         for r in res])
    assert verdicts[0] == verdicts[1]
    assert not any(v["passed"] for v in verdicts[0])


def test_capped_sample_is_per_rule_and_split_free():
    """With a cap of 3, every rule with violations keeps its own 3 least
    rows, and the input cut two ways reduces to the same rows."""
    spec = repo_files_spec()
    repos, commits = dimensions(CFG)
    membership = {0: build_membership(repos, ["repo"]),
                  1: build_membership(commits, ["repo", "commit"])}
    assert [fk.dim_table for fk in spec.foreign_keys] == ["repos", "commits"]
    kernel = ValidationKernel(spec, membership=membership)
    kernel.cap = 3
    batch = repo_files_batch(np.arange(120), CFG)

    def merged(cuts):
        bounds = [0, *cuts, batch.num_rows]
        findings = pa.concat_tables(kernel(batch.slice(a, b - a))
                                    for a, b in zip(bounds, bounds[1:]))
        (res,) = merge_findings(findings, kernel).values()
        return res

    whole = merged([])
    rules = {k: n for k, n in whole.counters.items() if k != "rows" and n}
    assert {k.split("|")[0] for k in rules} >= {
        "completeness", "accepted", "format", "sha256", "referential"}
    got = [f"{c}|{col}" for c, col in zip(whole.violations["check"].to_pylist(),
                                          whole.violations["column"].to_pylist())]
    assert {k: got.count(k) for k in rules} == {k: min(n, 3) for k, n in rules.items()}
    for cuts in ([57], [13, 40, 41, 90]):
        assert merged(cuts).violations.equals(whole.violations)
        assert merged(cuts).counters == whole.counters


@pytest.fixture(scope="module")
def cold(ray_session, tmp_path_factory):
    """The fixture rows, its dimension files, and the outputs of a cold
    run over one file holding one row group."""
    base = str(tmp_path_factory.mktemp("layouts"))
    write_repo_files(os.path.join(base, "data"), N_ROWS, CFG)
    table = pq.read_table(os.path.join(base, "data", "repo_files.parquet"))
    dims = {name: os.path.join(base, "data", f"{name}.parquet")
            for name in ("repos", "commits")}
    src, out = os.path.join(base, "one"), os.path.join(base, "one_out")
    _write(table, src, [], N_ROWS)
    run_validation(src, out, repo_files_spec(), dim_paths=dims)
    assert load_lineage(out, 0)["counters"]["referential|repo"] > 0
    return base, table, dims, _outputs(out)


@settings(max_examples=10, deadline=None)
@given(row_group_size=st.integers(min_value=20, max_value=N_ROWS),
       cuts=st.lists(st.integers(min_value=1, max_value=N_ROWS - 1),
                     max_size=3, unique=True),
       windows_per_pass=st.integers(min_value=1, max_value=5),
       first=st.sets(st.integers(min_value=0, max_value=4), max_size=4),
       appended=st.integers(min_value=0, max_value=3),
       interleaved=st.booleans())
@example(row_group_size=70, cuts=[130], windows_per_pass=2, first=set(),
         appended=2, interleaved=False)
@example(row_group_size=50, cuts=[], windows_per_pass=4, first=set(),
         appended=0, interleaved=True)
def test_outputs_depend_only_on_rows(cold, row_group_size, cuts, windows_per_pass,
                                     first, appended, interleaved):
    """The last ``appended`` windows' files appear only after a first run
    (of the windows of ``first`` present then, or of all of them), so the
    second run's table check recomputes over the persisted runs;
    ``interleaved`` deals each file's rows round-robin by window."""
    base, table, dims, want = cold
    run = tempfile.mkdtemp(dir=base)
    src, out = os.path.join(run, "data"), os.path.join(run, "out")
    split = N_ROWS - appended * CFG.window_rows
    layout = _interleave if interleaved else (lambda t: t)
    _write(layout(table.slice(0, split)), src, [c for c in cuts if c < split],
           row_group_size)
    if first or appended:
        present = sorted(w for w in first if w * CFG.window_rows < split)
        run_validation(src, out, repo_files_spec(), dim_paths=dims,
                       windows=present or None, windows_per_pass=windows_per_pass)
    if appended:
        _write(layout(table.slice(split)), src, [c - split for c in cuts if c > split],
               row_group_size, prefix="appended")
    run_validation(src, out, repo_files_spec(), dim_paths=dims,
                   windows_per_pass=windows_per_pass)
    got = _outputs(out)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name
