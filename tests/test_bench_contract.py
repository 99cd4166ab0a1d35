"""The names the benchmark (``perfbench/``) patches or looks up in the
engine still exist: every traced call resolves, and every check the
kernel builds has a per-check metric name.  A rename in ``driftray``
otherwise surfaces only when a traced benchmark run starts."""

import importlib
import os
import sys

import pytest

from driftray.checks import build_checks
from driftray.spec import repo_files_spec

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    """``perfbench``'s ``tracing`` and ``layers`` modules, imported as
    ``run.py`` imports them (its own directory first on ``sys.path``)."""
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("tracing"), importlib.import_module("layers")
    finally:
        sys.path.remove(PERFBENCH)


def test_every_traced_call_resolves(perfbench):
    tracing, _ = perfbench
    assert tracing.TRACED
    for name, module, attr in tracing.TRACED:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {module}.{attr} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), f"{name}: {module}.{attr} is not callable"


def test_every_built_check_has_a_metric_name(perfbench):
    _, layers = perfbench
    built = {type(c).__name__ for c in build_checks(repo_files_spec(), {}, {})}
    assert built <= set(layers.CHECK_NAMES), built - set(layers.CHECK_NAMES)


def test_profile_bytes_reads_the_engine_store(perfbench, tmp_path):
    """``layers._profile_bytes`` reads a window's ``profiles.parquet`` as
    the engine's ``Baseline`` writes it: the summed sizes of the stored
    profile parts."""
    import numpy as np

    from driftray import sketches
    from driftray.pipeline import Baseline
    from driftray.sketches import ColumnProfile

    _, layers = perfbench
    rng = np.random.default_rng(3)
    profiles = {(g, "v"): ColumnProfile.of("v", g, rng.normal(size=500))
                for g in ("", "a", "b")}
    Baseline(profiles).save(str(tmp_path / "profiles.parquet"))
    want = sum(len(sketches.dumps(getattr(p, part)))
               for p in profiles.values() for part in ColumnProfile.PARTS)
    assert layers._profile_bytes(str(tmp_path)) == want


def test_run_validation_calls_validate_dataset_per_chunk(ray_session, tmp_path,
                                                         monkeypatch):
    """``layers.op_layers`` derives its ``run_validation`` per-layer
    metrics only when the op has a ``pipeline.validate_dataset`` span, so
    every kernel chunk must go through that function."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from driftray import pipeline
    from driftray.spec import ColumnSpec, TableSpec

    d = tmp_path / "t"
    d.mkdir()
    w = np.repeat(np.arange(5), 10)
    pq.write_table(pa.table({"window_id": pa.array(w, pa.int64()),
                             "v": pa.array(np.arange(50) - 3, pa.int64())}),
                   str(d / "a.parquet"), row_group_size=10)
    calls = []
    real = pipeline.validate_dataset

    def spy(ds, spec, **kw):
        calls.append(ds)
        return real(ds, spec, **kw)

    monkeypatch.setattr(pipeline, "validate_dataset", spy)
    res = pipeline.run_validation(
        str(d), str(tmp_path / "out"),
        TableSpec(name="t", columns=[ColumnSpec("v", min_value=0)]),
        windows_per_pass=2)
    assert [r.window_id for r in res] == [0, 1, 2, 3, 4]
    assert len(calls) == 3     # chunks [0, 1], [2, 3], [4]


def test_kernel_probe_runs_every_built_check(perfbench, tmp_path):
    """``layers.kernel_probe`` runs each built check on a
    ``CheckContext`` of its own, as the traced benchmark does: on a
    200-row repo_files batch with footer-fold histogram edges and Bloom
    memberships (as ``run.py``'s ``cross_layer_probes`` builds them), it
    returns a per-check time for every built check and the findings rows
    per 1000 rows."""
    import pyarrow.parquet as pq

    from driftray.checks import ValidationKernel
    from driftray.fixtures import RepoFilesConfig, write_repo_files
    from driftray.pipeline import build_membership, infer_hist_edges

    _, layers = perfbench
    data = str(tmp_path / "data")
    write_repo_files(data, 200, RepoFilesConfig(window_rows=100, content_median=256))
    spec = repo_files_spec()
    path = f"{data}/repo_files.parquet"
    membership = {i: build_membership(pq.read_table(f"{data}/{fk.dim_table}.parquet"),
                                      fk.dim_columns, use_bloom=True)
                  for i, fk in enumerate(spec.foreign_keys)}
    got = layers.kernel_probe(spec, pq.read_table(path).slice(0, 200),
                              infer_hist_edges(path, spec), membership)
    built = ValidationKernel(spec, membership=membership).checks
    for check in built:
        name = f"checks.{layers.CHECK_NAMES[type(check).__name__]}.s_per_krow"
        assert got[name] > 0, name
    assert got["checks.findings_rows_per_krow"] > 0
