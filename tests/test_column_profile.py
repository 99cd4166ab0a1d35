"""``sketches.ColumnProfile``, the one profile type: the kernel emits one
``profile`` row per (group, column) per window slice, profiles merge
part by part, and the baseline store round-trips byte for byte."""

from collections import Counter

import numpy as np
import pyarrow.compute as pc
import pytest

from driftray import sketches
from driftray.checks import ValidationKernel
from driftray.fixtures import RepoFilesConfig, repo_files_batch
from driftray.pipeline import Baseline, merge_findings
from driftray.sketches import ColumnProfile
from driftray.spec import repo_files_spec


def _findings(n: int = 2000):
    batch = repo_files_batch(np.arange(n), RepoFilesConfig(window_rows=n))
    kernel = ValidationKernel(repo_files_spec(), window_column="window_id")
    return batch, kernel(batch)


def test_one_window_batch_emits_one_profile_row_per_group_column():
    batch, findings = _findings()
    prof = findings.filter(pc.equal(findings["check"], "profile"))
    keys = Counter(zip(prof["group"].to_pylist(), prof["column"].to_pylist()))
    langs = {g for g in batch["lang"].to_pylist() if g is not None}
    assert set(keys) == {("", "content_len")} | {(g, "content_len") for g in langs}
    assert set(keys.values()) == {1}


def test_merge_equals_profile_of_all_values():
    rng = np.random.default_rng(7)
    a, b = rng.lognormal(7, 1, 3000), rng.lognormal(7.5, 1, 2000)
    edges = np.geomspace(1, 1e6, 33)
    merged = ColumnProfile.of("x", "g", a, edges).merge(ColumnProfile.of("x", "g", b, edges))
    whole = ColumnProfile.of("x", "g", np.concatenate([a, b]), edges)
    assert merged.moments.n == whole.moments.n == 5000
    assert merged.moments.mean == pytest.approx(whole.moments.mean)
    assert merged.moments.std == pytest.approx(whole.moments.std)
    assert (merged.moments.min, merged.moments.max) == (whole.moments.min, whole.moments.max)
    assert merged.hist.counts.tolist() == whole.hist.counts.tolist()
    assert merged.tdigest.quantile(0.5) == pytest.approx(whole.tdigest.quantile(0.5), rel=0.02)


def test_default_histogram_is_ten_bins_over_unit_interval():
    p = ColumnProfile.of("x", "", np.array([0.05, 0.5, 0.95, 2.0]))
    assert p.hist.edges.tolist() == np.linspace(0.0, 1.0, 11).tolist()
    assert p.hist.counts.sum() == 3 and p.hist.over == 1


def test_dumps_flushes_the_profile_digest():
    values = np.random.default_rng(1).normal(size=1000)
    flushed = ColumnProfile.of("x", "", values)
    flushed.tdigest._flush()
    assert sketches.dumps(ColumnProfile.of("x", "", values)) == sketches.dumps(flushed)


def test_baseline_save_load_save_is_byte_identical(tmp_path):
    _, findings = _findings()
    profiles = merge_findings(findings)[2]
    first, second = tmp_path / "a.parquet", tmp_path / "b.parquet"
    Baseline(profiles).save(str(first))
    loaded = Baseline.load(str(first))
    loaded.save(str(second))
    assert first.read_bytes() == second.read_bytes()
    assert list(loaded.profiles) == list(profiles)
    assert [p.to_row() for p in loaded.profiles.values()] == [
        p.to_row() for p in profiles.values()]
