"""Schema snapshot / drift / preflight (driftray.schema_drift) — the
engine's realization of the reference's promised Schema Registry
evolution tracking (DESIGN.md:317-322)."""
import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write(tmp, name, df):
    path = os.path.join(tmp, name)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), path)
    return path


def test_snapshot_and_diff(tmp_path):
    from driftray.schema_drift import diff_schemas, snapshot_schema

    p1 = _write(str(tmp_path), "a.parquet",
                pd.DataFrame({"x": [1], "y": ["s"]}))
    s1 = snapshot_schema(p1)
    assert s1 == {"x": "int64", "y": "string"}

    p2 = _write(str(tmp_path), "b.parquet",
                pd.DataFrame({"x": [1.5], "z": [True]}))
    d = diff_schemas(s1, snapshot_schema(p2))
    assert d["drifted"]
    assert d["added"] == ["z"] and d["removed"] == ["y"]
    assert d["changed"] == [{"column": "x", "old": "int64", "new": "double"}]


def test_spec_findings_and_strict(tmp_path):
    from driftray.schema_drift import (SchemaError, record_and_diff,
                                       spec_findings, snapshot_schema)
    from driftray.spec import ColumnSpec, TableSpec

    p = _write(str(tmp_path), "t.parquet", pd.DataFrame({"a": [1]}))
    spec = TableSpec(name="t", columns=[ColumnSpec("a", required=True),
                                        ColumnSpec("b", required=True)],
                     unique_key=("a",), profile_columns=("c",))
    f = spec_findings(snapshot_schema(p), spec)
    assert {x["column"] for x in f} == {"b", "c"}
    with pytest.raises(SchemaError, match="b"):
        record_and_diff(str(tmp_path / "out"), p, spec, strict=True)


def test_record_and_diff_across_runs(tmp_path):
    from driftray.schema_drift import persist_snapshot, record_and_diff
    from driftray.spec import ColumnSpec, TableSpec

    out = str(tmp_path / "out")
    spec = TableSpec(name="t", columns=[ColumnSpec("a", required=True)])
    p1 = _write(str(tmp_path), "r1.parquet",
                pd.DataFrame({"a": [1], "extra": [2]}))
    r1 = record_and_diff(out, p1, spec)
    assert r1["drift"] is None and r1["spec_violations"] == []
    persist_snapshot(out, r1["schema"])

    p2 = _write(str(tmp_path), "r2.parquet", pd.DataFrame({"a": [1]}))
    r2 = record_and_diff(out, p2, spec)
    assert r2["drift"]["drifted"] and r2["drift"]["removed"] == ["extra"]
    persist_snapshot(out, r2["schema"])
    # snapshot file now reflects run 2
    with open(os.path.join(out, "schema.json")) as fh:
        assert json.load(fh) == {"a": "int64"}


def test_run_validation_reports_schema(tmp_path, ray_session):
    """run_validation records the snapshot + reports drift on re-run."""
    from driftray.fixtures import RepoFilesConfig, write_repo_files
    from driftray.pipeline import run_validation
    from driftray.spec import repo_files_spec

    data = str(tmp_path / "data")
    cfg = RepoFilesConfig(window_rows=500)
    write_repo_files(data, 1000, cfg)
    spec = repo_files_spec()
    out = str(tmp_path / "out")
    run_validation(f"{data}/repo_files.parquet", out, spec,
                   check_uniqueness=False)
    assert os.path.exists(os.path.join(out, "schema.json"))
    with open(os.path.join(out, "run_lineage.jsonl")) as fh:
        line = json.loads(fh.readlines()[-1])
    assert line["schema_drift"] is None and line["schema_violations"] == []
    assert "schema_preflight" in line["stages_s"]


def test_schema_drift_fires_alert(tmp_path, ray_session):
    """A schema change between two validate runs lands in the alert
    history (run-level synthetic verdict, window_id = -1)."""
    import pyarrow.parquet as pq_

    from driftray.alerts import AlertManager
    from driftray.fixtures import RepoFilesConfig, write_repo_files
    from driftray.pipeline import run_validation
    from driftray.spec import repo_files_spec

    data = str(tmp_path / "data")
    cfg = RepoFilesConfig(window_rows=500)
    write_repo_files(data, 1000, cfg)
    spec = repo_files_spec()
    out = str(tmp_path / "out")
    src = f"{data}/repo_files.parquet"
    run_validation(src, out, spec, check_uniqueness=False)
    hist0 = AlertManager(history_path=f"{out}/alerts").history().to_pandas()
    assert "schema_drift" not in hist0["rule"].tolist()

    # run 2: same data plus an extra column → drift alert (rerun needs
    # fresh window outputs, so use a new out dir with the old baseline)
    t = pq_.read_table(src)
    t2 = t.append_column("extra_col", pa.nulls(len(t), pa.int64()))
    src2 = str(tmp_path / "repo_files2.parquet")
    pq_.write_table(t2, src2)
    import shutil

    out2 = str(tmp_path / "out2")
    os.makedirs(out2)
    shutil.copy(os.path.join(out, "schema.json"),
                os.path.join(out2, "schema.json"))
    run_validation(src2, out2, spec, check_uniqueness=False)
    hist = AlertManager(history_path=f"{out2}/alerts").history().to_pandas()
    fired = hist[hist["rule"] == "schema_drift"]
    assert len(fired) == 1 and fired["window_id"].iloc[0] == -1
