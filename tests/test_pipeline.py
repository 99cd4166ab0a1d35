"""End-to-end pipeline over the deterministic repo_files fixture:
planted-violation recovery, drift windows, resume (SURVEY.md §5.2 #3, #6)."""

import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from driftray.fixtures import RepoFilesConfig, write_repo_files
from driftray.pipeline import (Baseline, load_lineage, promote_baseline,
                               run_validation, window_done)
from driftray.spec import repo_files_spec

N_ROWS = 8000
CFG = RepoFilesConfig(window_rows=2000, drifted_windows=(3,))


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory, ray_session):
    d = str(tmp_path_factory.mktemp("repo_files"))
    write_repo_files(d, N_ROWS, CFG)
    return d


@pytest.fixture(scope="module")
def first_run(fixture_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("out"))
    dims = {"repos": f"{fixture_dir}/repos.parquet",
            "commits": f"{fixture_dir}/commits.parquet"}
    results = run_validation(f"{fixture_dir}/repo_files.parquet", out,
                             repo_files_spec(), dim_paths=dims)
    return fixture_dir, out, {r.window_id: r for r in results}


def expected_counts(fixture_dir):
    exp = pq.read_table(f"{fixture_dir}/repo_files_expected.parquet").to_pandas()
    return exp


class TestPlantedViolations:
    def test_null_paths_recovered(self, first_run):
        d, out, res = first_run
        exp = expected_counts(d)
        for w, r in res.items():
            want = int(exp[exp.window_id == w]._null_path.sum())
            assert r.counters.get("completeness|path", 0) == want

    def test_sha256_recovered(self, first_run):
        d, out, res = first_run
        exp = expected_counts(d)
        for w, r in res.items():
            want = int(exp[exp.window_id == w]._bad_sha.sum())
            assert r.counters.get("sha256|content", 0) == want

    def test_referential_repo_orphans(self, first_run):
        d, out, res = first_run
        exp = expected_counts(d)
        for w, r in res.items():
            want = int(exp[exp.window_id == w]._orphan_repo.sum())
            assert r.counters.get("referential|repo", 0) == want

    def test_bad_commits_flagged(self, first_run):
        d, out, res = first_run
        exp = expected_counts(d)
        for w, r in res.items():
            # orphan repos also fail the (repo,commit) membership → superset
            bad = int((exp[exp.window_id == w]._bad_commit
                       | exp[exp.window_id == w]._orphan_repo).sum())
            assert r.counters.get("referential|repo|commit", 0) == bad

    def test_uniqueness_extra_rows(self, first_run):
        from driftray.pipeline import load_table_report

        d, out, res = first_run
        # table-level global check: its own lineage under out/table/
        report = load_table_report(out)
        assert report["check"] == "uniqueness"
        exp = expected_counts(d)
        want = int(exp._dup_key.sum())
        # planted dups copy the previous row's key; a few planted rows get
        # their key re-mutated by other planted violations → small slack
        assert report["extra_rows"] == pytest.approx(want, abs=3)

    def test_rows_counted(self, first_run):
        _, _, res = first_run
        assert all(r.n_rows == CFG.window_rows for r in res.values())


class TestProfilesAndDistinctKeys:
    def test_profile_counts_sum(self, first_run):
        _, _, res = first_run
        for r in res.values():
            table_level = r.profiles.get(("", "content_len"))
            assert table_level is not None
            assert table_level.moments.n == CFG.window_rows
            grouped = sum(p.moments.n for (g, _), p in r.profiles.items() if g != "")
            assert grouped == CFG.window_rows

    def test_distinct_keys_exact(self, first_run):
        """Each window's ``distinct_keys`` is pandas' count of distinct
        (repo, path, commit) keys, nulls equal, with planted duplicates."""
        d, out, res = first_run
        key = list(repo_files_spec().unique_key)
        rows = pq.read_table(f"{d}/repo_files.parquet",
                             columns=["window_id", *key]).to_pandas()
        assert rows[key].isna().values.any()
        for w, r in res.items():
            keys = rows[rows.window_id == w][key]
            assert keys.duplicated().any()
            assert r.distinct_keys == len(keys.drop_duplicates())
            assert load_lineage(out, w)["distinct_keys"] == r.distinct_keys


class TestDrift:
    def test_drifted_window_detected_clean_not(self, first_run, tmp_path):
        d, out, res = first_run
        promote_baseline(out, 0, str(tmp_path / "baseline.parquet"))
        out2 = str(tmp_path / "out2")
        dims = {"repos": f"{d}/repos.parquet", "commits": f"{d}/commits.parquet"}
        r2 = run_validation(f"{d}/repo_files.parquet", out2, repo_files_spec(),
                            dim_paths=dims, windows=[1, 3],
                            baseline_path=str(tmp_path / "baseline.parquet"),
                            check_uniqueness=False)
        by_w = {r.window_id: r for r in r2}
        assert not by_w[1].drift_detected
        assert by_w[3].drift_detected
        cat = [x for x in by_w[3].drift_rows if x["kind"] == "categorical"]
        assert cat and cat[0]["drift_detected"]  # lang mix shifted


class TestResume:
    def test_done_markers_skip(self, fixture_dir, tmp_path):
        out = str(tmp_path / "resume_out")
        spec = repo_files_spec()
        r1 = run_validation(f"{fixture_dir}/repo_files.parquet", out, spec,
                            windows=[0, 1], check_uniqueness=False)
        assert [r.window_id for r in r1] == [0, 1]
        assert window_done(out, 0) and not window_done(out, 2)
        r2 = run_validation(f"{fixture_dir}/repo_files.parquet", out, spec,
                            check_uniqueness=False)
        assert [r.window_id for r in r2] == [2, 3]  # only pending ran
        r3 = run_validation(f"{fixture_dir}/repo_files.parquet", out, spec,
                            check_uniqueness=False)
        assert r3 == []

    def test_lineage_readable(self, first_run):
        _, out, res = first_run
        for w in res:
            lin = load_lineage(out, w)
            assert lin["n_rows"] == CFG.window_rows
            assert "counters" in lin and "profiles" in lin

    def test_resume_results_identical(self, fixture_dir, tmp_path, first_run):
        """Kill/resume equivalence: windows computed in separate runs match a
        single full run's lineage byte-for-byte on verdict fields."""
        _, out_full, res_full = first_run
        out = str(tmp_path / "split_out")
        spec = repo_files_spec()
        d = fixture_dir
        dims = {"repos": f"{d}/repos.parquet", "commits": f"{d}/commits.parquet"}
        run_validation(f"{d}/repo_files.parquet", out, spec, dim_paths=dims,
                       windows=[0], check_uniqueness=False)
        run_validation(f"{d}/repo_files.parquet", out, spec, dim_paths=dims,
                       check_uniqueness=False)
        for w, r_full in res_full.items():
            lin = load_lineage(out, w)
            for key in ("completeness|path", "sha256|content", "referential|repo"):
                assert lin["counters"].get(key, 0) == r_full.counters.get(key, 0)


class TestBaselineStore:
    def test_save_load_roundtrip(self, first_run, tmp_path):
        _, _, res = first_run
        p = str(tmp_path / "b.parquet")
        Baseline(res[0].profiles).save(p)
        b = Baseline.load(p)
        orig = res[0].profiles[("", "content_len")]
        back = b.profiles[("", "content_len")]
        assert back.moments.mean == pytest.approx(orig.moments.mean)
        assert back.tdigest.quantile(0.5) == pytest.approx(orig.tdigest.quantile(0.5))
        assert (back.hist.counts == orig.hist.counts).all()


def test_window_without_rows_adds_no_profiles(tmp_path, ray_session):
    """A validated window that held no rows (window 99 is in no row group)
    has no profiles file: the table profile skips it, and promoting it
    raises rather than storing an empty baseline."""
    from driftray.pipeline import aggregate_profiles

    data = str(tmp_path / "data")
    write_repo_files(data, 2000, RepoFilesConfig(window_rows=1000))
    out = str(tmp_path / "out")
    run_validation(f"{data}/repo_files.parquet", out, repo_files_spec(),
                   windows=[0, 99], check_uniqueness=False)
    assert window_done(out, 99)

    paths = [str(tmp_path / "all.parquet"), str(tmp_path / "w0.parquet")]
    aggregate_profiles(out).save(paths[0])
    aggregate_profiles(out, windows=[0]).save(paths[1])
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()
    with pytest.raises(ValueError, match="window 99"):
        promote_baseline(out, 99, str(tmp_path / "baseline.parquet"))


def test_aggregate_profiles_matches_full_recompute(tmp_path, ray_session):
    """Merging per-window sketch sidecars == profiling the whole table:
    exact for count/mean/std/min/max (Welford merge is exact), tolerance
    for the digest quantiles."""
    import numpy as np

    from driftray.fixtures import RepoFilesConfig, write_repo_files
    from driftray.pipeline import aggregate_profiles, run_validation
    from driftray.spec import repo_files_spec

    data = str(tmp_path / "data")
    cfg = RepoFilesConfig(window_rows=1000)
    write_repo_files(data, 4000, cfg)
    out = str(tmp_path / "out")
    spec = repo_files_spec()
    res = run_validation(f"{data}/repo_files.parquet", out, spec,
                         check_uniqueness=False)

    table = aggregate_profiles(out)
    # oracle: overall stats straight from the raw parquet
    import pyarrow.parquet as pq

    t = pq.read_table(f"{data}/repo_files.parquet",
                      columns=["lang", "content_len"]).to_pandas()
    for (group, col), prof in table.profiles.items():
        if col != "content_len":
            continue
        sub = (t["content_len"] if group == ""      # the all-rows group
               else t[t["lang"] == group]["content_len"])
        d = prof.moments.to_dict()
        assert d["count"] == len(sub)
        np.testing.assert_allclose(d["mean"], sub.mean(), rtol=1e-12)
        np.testing.assert_allclose(d["std"], sub.std(ddof=0), rtol=1e-9)
        assert d["min"] == sub.min() and d["max"] == sub.max()
        med = prof.tdigest.quantile(0.5)
        assert abs(med - sub.median()) <= 0.1 * max(sub.std(ddof=0), 1)

    # incremental: merging a subset then the rest == merging all at once
    ws = sorted(r.window_id for r in res)
    part = aggregate_profiles(out, windows=ws[:2])
    key = next(iter(table.profiles))
    assert part.profiles  # sanity
