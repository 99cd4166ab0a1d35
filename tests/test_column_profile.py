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


def _profiles(kernel: ValidationKernel, batch) -> dict:
    """The profiles of ``kernel``'s one window over ``batch``."""
    (res,) = merge_findings(kernel(batch), kernel).values()
    return res.profiles


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
    profiles = _profiles(ValidationKernel(repo_files_spec(), window_column="window_id"),
                         _findings()[0])
    first, second = tmp_path / "a.parquet", tmp_path / "b.parquet"
    Baseline(profiles).save(str(first))
    loaded = Baseline.load(str(first))
    loaded.save(str(second))
    assert first.read_bytes() == second.read_bytes()
    assert list(loaded.profiles) == list(profiles)
    assert [p.to_row() for p in loaded.profiles.values()] == [
        p.to_row() for p in profiles.values()]


def test_empty_string_group_stays_out_of_the_table_profile():
    """A group whose value is ``""`` gets its own label, ``EMPTY_GROUP``;
    the table-level profile (group ``""``) counts each row once."""
    import pyarrow as pa

    from driftray.checks import EMPTY_GROUP
    from driftray.spec import TableSpec

    batch = pa.table({"g": ["", "en", "en", ""], "x": [1.0, 2.0, 3.0, 4.0]})
    spec = TableSpec(name="t", profile_columns=("x",), group_column="g")
    profiles = _profiles(ValidationKernel(spec), batch)
    assert list(profiles) == [("", "x"), (EMPTY_GROUP, "x"), ("en", "x")]
    assert profiles["", "x"].moments.n == 4
    assert profiles["", "x"].moments.mean == 2.5
    assert profiles[EMPTY_GROUP, "x"].moments.n == 2
    assert profiles[EMPTY_GROUP, "x"].moments.mean == 2.5
    assert profiles["en", "x"].moments.n == 2


def test_baseline_from_merged_empty_group_loads_unchanged(tmp_path):
    """A baseline stored while group ``""`` also held the empty-string
    group's rows loads as stored: same keys, same counts, same bytes."""
    edges = np.linspace(0, 5, 33)
    old = {("", "x"): ColumnProfile.of("x", "", np.array([1.0, 2, 3, 4, 1, 4]), edges),
           ("en", "x"): ColumnProfile.of("x", "en", np.array([2.0, 3]), edges)}
    first, second = tmp_path / "a.parquet", tmp_path / "b.parquet"
    Baseline(old).save(str(first))
    loaded = Baseline.load(str(first))
    assert list(loaded.profiles) == list(old)
    assert loaded.profiles["", "x"].moments.n == 6
    loaded.save(str(second))
    assert first.read_bytes() == second.read_bytes()


def _categorical_psi(baseline: dict, current: dict) -> float:
    from driftray.pipeline import drift_report
    from driftray.spec import TableSpec

    spec = TableSpec(name="t", profile_columns=("x",), group_column="g")
    [row] = [r for r in drift_report(Baseline(baseline), current, spec)
             if r["kind"] == "categorical"]
    return row["psi"]


def test_old_baseline_gives_no_categorical_drift_for_empty_group():
    """Against a baseline stored while group ``""`` also held the
    empty-string rows (no ``EMPTY_GROUP`` profile), a window whose group
    column holds ``""`` scores the group shares it scored then: the
    empty-string rows are in no share."""
    import pyarrow as pa

    from driftray.checks import EMPTY_GROUP
    from driftray.spec import TableSpec

    rng = np.random.default_rng(3)
    edges = np.linspace(0, 1, 33)
    g = np.array(["en", "fr", "", "en"] * 500, dtype=object)
    x = rng.random(g.size)
    old = {("", "x"): ColumnProfile.of("x", "", np.concatenate([x, x[g == ""]]), edges),
           **{(v, "x"): ColumnProfile.of("x", v, x[g == v], edges) for v in ("en", "fr")}}
    spec = TableSpec(name="t", profile_columns=("x",), group_column="g")
    batch = pa.table({"g": g.tolist(), "x": x})
    current = _profiles(ValidationKernel(spec, hist_edges={"x": edges}), batch)
    assert current[EMPTY_GROUP, "x"].moments.n == 500
    assert _categorical_psi(old, current) == 0.0
    # a baseline that has the label compares its share like any group's
    new = {**old, (EMPTY_GROUP, "x"): current[EMPTY_GROUP, "x"]}
    assert _categorical_psi(new, current) == 0.0
    assert _categorical_psi(new, {k: v for k, v in current.items()
                                  if k[0] != EMPTY_GROUP}) > 1.0
