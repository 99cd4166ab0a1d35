"""A window's outputs are a function of its rows alone: the kernel keeps
no state across batches, and ``pipeline.merge_findings`` reduces the
findings of any split of the rows to the same counters, violation sample
and verdicts.  The property test holds ``run_validation``'s outputs to a
cold run over one file holding one row group, for drawn layouts, chunk
sizes, partial runs, windows appended between runs, windows whose rows
interleave inside row groups, files in two schema versions and a run
stopped between windows, then resumed."""

import json
import os
import tempfile
from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftray import pipeline
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
# with two schema versions, the files of rows from VERSION_ROW on (inside
# window 2) lack the non-key column DROPPED
VERSION_ROW, DROPPED = 150, "lang"


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
    """The fixture rows, its dimension files, and the outputs of cold runs
    over one file holding one row group: of the rows as written (key
    False) and of their null-filled union with ``DROPPED`` null from
    ``VERSION_ROW`` on (key True)."""
    base = str(tmp_path_factory.mktemp("layouts"))
    write_repo_files(os.path.join(base, "data"), N_ROWS, CFG)
    table = pq.read_table(os.path.join(base, "data", "repo_files.parquet"))
    dims = {name: os.path.join(base, "data", f"{name}.parquet")
            for name in ("repos", "commits")}
    i = table.schema.get_field_index(DROPPED)
    col = table[DROPPED].combine_chunks()
    nulled = table.set_column(i, DROPPED, pa.concat_arrays([
        col.slice(0, VERSION_ROW), pa.nulls(N_ROWS - VERSION_ROW, col.type)]))
    want = {}
    for versions, rows in ((False, table), (True, nulled)):
        src = os.path.join(base, f"one{versions:d}")
        out = os.path.join(base, f"one{versions:d}_out")
        _write(rows, src, [], N_ROWS)
        run_validation(src, out, repo_files_spec(), dim_paths=dims)
        want[versions] = _outputs(out)
    assert load_lineage(os.path.join(base, "one0_out"), 0)["counters"]["referential|repo"] > 0
    return base, table, dims, want


class _Stop(Exception):
    pass


@settings(max_examples=10, deadline=None)
@given(row_group_size=st.integers(min_value=20, max_value=N_ROWS),
       cuts=st.lists(st.integers(min_value=1, max_value=N_ROWS - 1),
                     max_size=3, unique=True),
       windows_per_pass=st.integers(min_value=1, max_value=5),
       first=st.sets(st.integers(min_value=0, max_value=4), max_size=4),
       appended=st.integers(min_value=0, max_value=3),
       interleaved=st.booleans(),
       versions=st.booleans(),
       stop=st.none() | st.integers(min_value=0, max_value=4))
@example(row_group_size=70, cuts=[130], windows_per_pass=2, first=set(),
         appended=2, interleaved=False, versions=False, stop=None)
@example(row_group_size=50, cuts=[], windows_per_pass=4, first=set(),
         appended=0, interleaved=True, versions=False, stop=None)
@example(row_group_size=40, cuts=[], windows_per_pass=1, first=set(),
         appended=0, interleaved=False, versions=True, stop=None)
@example(row_group_size=60, cuts=[200], windows_per_pass=2, first=set(),
         appended=0, interleaved=False, versions=False, stop=2)
def test_outputs_depend_only_on_rows(cold, row_group_size, cuts, windows_per_pass,
                                     first, appended, interleaved, versions, stop):
    """The last ``appended`` windows' files appear only after a first run
    (of the windows of ``first`` present then, or of all of them), so the
    second run's table check recomputes over the persisted runs;
    ``interleaved`` deals each file's rows round-robin by window;
    ``versions`` writes the rows from ``VERSION_ROW`` on without
    ``DROPPED``; ``stop`` makes the last run raise after writing that many
    windows (at a chunk boundary when ``windows_per_pass`` divides it),
    and a run after it resumes."""
    base, table, dims, want = cold
    run = tempfile.mkdtemp(dir=base)
    src, out = os.path.join(run, "data"), os.path.join(run, "out")
    split = N_ROWS - appended * CFG.window_rows
    layout = _interleave if interleaved else (lambda t: t)
    bounds = sorted({0, split, N_ROWS, *([VERSION_ROW] if versions else [])})

    def write(appearing: bool) -> None:
        # each run of rows between bounds as its own files, cut at ``cuts``
        for a, b in zip(bounds, bounds[1:]):
            if (a >= split) == appearing:
                rows = table.slice(a, b - a)
                if versions and a >= VERSION_ROW:
                    rows = rows.drop_columns([DROPPED])
                _write(layout(rows), src, [c - a for c in cuts if a < c < b],
                       row_group_size, prefix=f"rows{a:03d}")

    def validate(**kw) -> None:
        run_validation(src, out, repo_files_spec(), dim_paths=dims,
                       windows_per_pass=windows_per_pass, **kw)

    write(False)
    if first or appended:
        present = sorted(w for w in first if w * CFG.window_rows < split)
        validate(windows=present or None)
    if appended:
        write(True)
    if stop is not None:
        write, written = pipeline.write_window_result, []

        def write_then_stop(out_dir, res):
            if len(written) == stop:
                raise _Stop
            write(out_dir, res)
            written.append(res.window_id)

        with mock.patch.object(pipeline, "write_window_result", write_then_stop):
            try:
                validate()
            except _Stop:
                pass
    validate()
    got = _outputs(out)
    assert sorted(got) == sorted(want[versions])
    for name in want[versions]:
        assert got[name] == want[versions][name], name
