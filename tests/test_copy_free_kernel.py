"""The copy-free kernel pass and the pandas-free reduction, each against
the behaviour it replaced: window runs as zero-copy slices vs the mask
filter, the fixed-width sha256 compare vs the per-value compare, the
one-pass ``merge_findings`` vs a pandas reduction (kept here as the
oracle), the exact filter of ``read_row_group`` passing whole row groups
on, and one footer read per file per run."""

import hashlib
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from driftray import sketches
from driftray.checks import (BatchCheck, CheckContext, Sha256Check,
                             ValidationKernel, _empty_findings, _hex_digests,
                             sha256_hex_arrow)
from driftray.pipeline import merge_findings
from driftray.sketches import merge_all
from driftray.spec import ColumnSpec, HashInvariant, TableSpec


def _spec(**kw) -> TableSpec:
    base = dict(
        name="t",
        columns=[ColumnSpec("sid", required=True),
                 ColumnSpec("val", required=True, min_value=0, max_value=50)],
        unique_key=("sid",),
        order_column="sid",
        profile_columns=("val",),
        group_column="g",
        hash_invariant=HashInvariant("content", "h"),
    )
    base.update(kw)
    return TableSpec(**base)


def _table(n: int, windows, seed: int = 0) -> pa.Table:
    rng = np.random.default_rng(seed)
    content = [f"row {i} " * int(rng.integers(1, 5)) for i in range(n)]
    h = [hashlib.sha256(c.encode()).hexdigest() for c in content]
    for i in range(0, n, 7):
        h[i] = "0" * 64          # a well-formed wrong hash
    val = rng.normal(25, 20, n)
    val[::11] = np.nan
    return pa.table({
        "sid": [f"k{i % (n - 3)}" for i in range(n)],   # a few duplicates
        "val": val,
        "g": rng.choice(["a", "b", "c"], n),
        "content": content,
        "h": h,
        "w": pa.array(windows, pa.int64()),
    })


# ---------------------------------------------------------------------------
# window runs: zero-copy slices, same findings as the mask filter
# ---------------------------------------------------------------------------


def _sorted_findings(f: pa.Table) -> list:
    rows = f.to_pylist()
    return sorted(rows, key=lambda r: tuple(str(r[c]) for c in f.column_names))


def test_interleaved_windows_match_window_sorted_batch():
    spec = _spec()
    t = _table(40, [i % 2 for i in range(40)])           # 0, 1, 0, 1, ...
    order = np.argsort(t["w"].to_numpy(), kind="stable")
    kernel = ValidationKernel(spec, window_column="w")
    interleaved = kernel(t)
    grouped = kernel(t.take(order))
    assert interleaved.schema == grouped.schema
    assert interleaved.to_pylist() == grouped.to_pylist()
    assert set(interleaved["window"].to_pylist()) == {0, 1}
    # the per-window results agree with each window checked on its own
    for w in (0, 1):
        alone = kernel._process(t.filter(pc.equal(t["w"], w)), w)
        got = interleaved.filter(pc.equal(interleaved["window"], w))
        assert _sorted_findings(got) == _sorted_findings(alone)


class _Recorder(BatchCheck):
    def __init__(self):
        self.batches = []

    def process(self, ctx: CheckContext) -> None:
        self.batches.append(ctx.batch)


def test_window_runs_are_zero_copy_slices():
    t = _table(30, [0] * 10 + [1] * 5 + [2] * 15)
    kernel = ValidationKernel(_spec(), window_column="w")
    rec = _Recorder()
    kernel.checks.append(rec)
    f = kernel(t)
    assert [b.num_rows for b in rec.batches] == [10, 5, 15]
    base = t["val"].chunk(0).buffers()[1].address
    for b in rec.batches:
        assert b["val"].chunk(0).buffers()[1].address == base
    rows = f.filter(pc.equal(f["check"], "rows"))
    assert dict(zip(rows["window"].to_pylist(), rows["n"].to_pylist())) == {
        0: 10, 1: 5, 2: 15}


def test_empty_batch_with_window_column():
    t = _table(4, [0, 0, 1, 1]).slice(0, 0)
    assert ValidationKernel(_spec(), window_column="w")(t).num_rows == 0


# ---------------------------------------------------------------------------
# sha256: fixed-width S64 compare vs per-value string compare
# ---------------------------------------------------------------------------


def _old_mask(content, expected) -> np.ndarray:
    actual = sha256_hex_arrow(content)
    exp = expected.to_pylist()
    return np.fromiter((a != e for a, e in zip(actual, exp)), dtype=bool,
                       count=len(actual))


def _check_mask(batch: pa.Table) -> np.ndarray:
    spec = TableSpec(name="s", hash_invariant=HashInvariant("content", "h"),
                     order_column="i")
    out = _empty_findings()
    Sha256Check(spec).process(CheckContext(batch, 0, spec, out, 10**9))
    refs = {ref for kind, ref in zip(out["kind"], out["row_ref"])
            if kind == "violation"}
    mask = np.array([str(i) in refs for i in batch["i"].to_pylist()])
    assert out["n"][0] == int(mask.sum())           # the counter
    return mask


def _hash_batch(content, h, typ=pa.string()) -> pa.Table:
    return pa.table({"i": pa.array(range(len(content)), pa.int64()),
                     "content": pa.array(content, typ),
                     "h": pa.array(h, typ)})


def _good(s):
    return hashlib.sha256(s.encode("utf-8")).hexdigest()


_CONTENT = ["alpha", "", "gamma ✓", "delta" * 50, "eps", "zeta"]


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
def test_sha256_fast_path_matches_per_value_compare(typ):
    h = [_good(c) for c in _CONTENT]
    h[1] = _good("other")                 # 64 bytes, wrong
    h[4] = h[4].upper()                   # 64 bytes, wrong case
    t = _hash_batch(_CONTENT, h, typ)
    assert _hex_digests(t["h"]) is not None
    mask = _check_mask(t)
    assert mask.tolist() == _old_mask(t["content"], t["h"]).tolist()
    assert mask.tolist() == [False, True, False, False, True, False]
    # sliced: the values start at an offset into the buffers
    s = t.slice(2, 3)
    assert _hex_digests(s["h"]) is not None
    assert _check_mask(s).tolist() == _old_mask(s["content"], s["h"]).tolist()


def test_sha256_fast_path_multi_chunk_columns():
    h = [_good(c) for c in _CONTENT]
    h[3] = "f" * 64
    t = _hash_batch(_CONTENT, h)
    # content and hash chunked differently, one chunk a slice
    content = pa.chunked_array([t["content"].chunk(0).slice(0, 2),
                                t["content"].chunk(0).slice(2)])
    hashes = pa.chunked_array([t["h"].chunk(0).slice(0, 4),
                               pa.array([], pa.string()),
                               t["h"].chunk(0).slice(4)])
    mt = pa.table({"i": t["i"], "content": content, "h": hashes})
    assert _hex_digests(mt["h"]) is not None
    assert _check_mask(mt).tolist() == _old_mask(content, hashes).tolist()
    assert _check_mask(mt).tolist() == [False, False, False, True, False, False]


@pytest.mark.parametrize("case", ["null_content", "null_hash", "deadbeef",
                                  "non_ascii_64"])
def test_sha256_fallback_matches_per_value_compare(case):
    content = list(_CONTENT)
    h = [_good(c) for c in content]
    if case == "null_content":
        content[2] = None
    elif case == "null_hash":
        h[2] = None
    elif case == "deadbeef":
        h[2] = "deadbeef"
    else:
        h[2] = "é" * 64                   # 64 characters, 128 bytes
    t = _hash_batch(content, h)
    if case != "null_content":
        assert _hex_digests(t["h"]) is None
    mask = _check_mask(t)
    assert mask.tolist() == _old_mask(t["content"], t["h"]).tolist()
    assert mask.tolist() == [False, False, True, False, False, False]


def test_sha256_64_byte_non_ascii_value_is_a_mismatch():
    content = list(_CONTENT)
    h = [_good(c) for c in content]
    h[0] = "é" * 32                       # 32 characters, 64 bytes
    t = _hash_batch(content, h)
    assert _hex_digests(t["h"]) is not None
    mask = _check_mask(t)
    assert mask.tolist() == _old_mask(t["content"], t["h"]).tolist()
    assert mask.tolist() == [True] + [False] * 5


def test_sha256_binary_hash_column_keeps_per_value_compare():
    h = [_good(c).encode() for c in _CONTENT]
    t = pa.table({"i": pa.array(range(6), pa.int64()),
                  "content": pa.array(_CONTENT),
                  "h": pa.array(h, pa.binary())})
    assert _hex_digests(t["h"]) is None
    assert _check_mask(t).tolist() == _old_mask(t["content"], t["h"]).tolist()


# ---------------------------------------------------------------------------
# merge_findings: one pass vs the pandas reduction it replaced
# ---------------------------------------------------------------------------


def _pandas_merge_findings(findings: pa.Table, k: int):
    kinds = np.asarray(findings["kind"].to_pandas(), dtype=object)
    cdf = findings.filter(pa.array(kinds == "counter")).select(
        ["check", "column", "n"]).to_pandas()
    by = cdf.groupby(["check", "column"])["n"]
    counters = (
        by.sum().where(by.sum().index.get_level_values("check") != "config", by.max())
        .reset_index()
        .assign(key=lambda d: np.where(d["column"] == "", d["check"],
                                       d["check"] + "|" + d["column"]))
        .set_index("key")["n"].to_dict()
    )
    cols = ["check", "column", "row_ref", "detail"]
    vdf = findings.filter(pa.array(kinds == "violation")).select(cols).to_pandas()
    star = vdf["row_ref"] == "*"
    vdf = pd.concat([vdf[star].drop_duplicates(), vdf[~star]]).sort_values(cols)
    vdf = vdf[vdf.groupby(["check", "column"]).cumcount() < k]
    violations = pa.Table.from_pandas(vdf, preserve_index=False)
    sk = findings.filter(pa.array(kinds == "sketch")).to_pandas()
    profiles = {}
    key_hll = None
    prof = sk[sk["check"] == "profile"]
    for (group, column), grp in prof.groupby(["group", "column"]):
        profiles[(group, column)] = merge_all(sketches.loads(b) for b in grp["blob"])
    uniq = sk[sk["check"] == "uniqueness"]
    if len(uniq):
        key_hll = merge_all(sketches.loads(b) for b in uniq["blob"]).estimate()
    return counters, violations, profiles, key_hll


def _pandas_findings_to_results(table: pa.Table, k: int) -> dict:
    out = {}
    windows = table["window"].to_pandas()
    for w in sorted(windows.unique()):
        out[int(w)] = _pandas_merge_findings(
            table.filter(pa.array((windows == w).to_numpy())), k)
    return out


def _profile_bytes(profiles: dict) -> list:
    return [(k, sketches.dumps(p.moments), sketches.dumps(p.tdigest),
             sketches.dumps(p.hist)) for k, p in profiles.items()]


def _assert_same_reduction(got, want) -> None:
    counters, violations, profiles, hll = got
    w_counters, w_violations, w_profiles, w_hll = want
    assert list(counters.items()) == list(w_counters.items())
    assert all(type(v) is int for v in counters.values())
    assert violations.equals(w_violations)
    assert _profile_bytes(profiles) == _profile_bytes(w_profiles)
    assert [p.to_row() for p in profiles.values()] == [
        p.to_row() for p in w_profiles.values()]
    assert hll == w_hll


def _batched_findings() -> tuple[ValidationKernel, pa.Table]:
    # five batches, each window spread over two of them
    t = _table(120, [0] * 50 + [1] * 40 + [2] * 30, seed=3)
    kernel = ValidationKernel(_spec(), window_column="w")
    kernel.cap = 5
    return kernel, pa.concat_tables(kernel(t.slice(a, 25)) for a in range(0, 120, 25))


def test_merge_findings_matches_pandas_reduction():
    kernel, findings = _batched_findings()
    # every window's findings come from two batches, whose violation
    # samples together exceed the cap
    assert Counter(findings.filter(pc.equal(findings["check"], "rows"))
                   ["window"].to_pylist()) == {0: 2, 1: 2, 2: 2}
    for w in (0, 1, 2):
        sub = findings.filter(pc.equal(findings["window"], w))
        got = merge_findings(sub, kernel)
        assert list(got) == [w]
        res = got[w]
        _assert_same_reduction((res.counters, res.violations, res.profiles,
                                res.key_hll_estimate),
                               _pandas_merge_findings(sub, kernel.cap))
    assert merge_findings(findings.schema.empty_table(), kernel) == {}


def test_findings_to_results_matches_pandas_split():
    # the whole table at once: merge_findings splits it by window itself
    kernel, findings = _batched_findings()
    got = merge_findings(findings, kernel)
    want = _pandas_findings_to_results(findings, kernel.cap)
    assert list(got) == list(want) == [0, 1, 2]
    for w, res in got.items():
        _assert_same_reduction((res.counters, res.violations, res.profiles,
                                res.key_hll_estimate), want[w])
        assert res.n_rows == want[w][0]["rows"]
        assert len(res.key_hashes) == res.n_rows
        sample = Counter(zip(*(res.violations[c].to_pylist()
                               for c in ("check", "column"))))
        assert max(sample.values()) == kernel.cap


# ---------------------------------------------------------------------------
# read_row_group: a row group whose rows are all kept is passed on as read
# ---------------------------------------------------------------------------


def test_exact_filter_passes_whole_row_group_on(tmp_path, monkeypatch):
    from functools import partial

    from driftray.ops.zonemap import read_row_group

    path = str(tmp_path / "w.parquet")
    pq.write_table(pa.table({"w": pa.array([3, 3, 4], pa.int64()),
                             "v": [1.0, 2.0, 3.0]}), path)
    # ``seen[-1]``: the table the reader got from Parquet, before any filter
    read = pq.ParquetFile.read_row_group
    seen = []

    def spy(self, *args, **kw):
        seen.append(read(self, *args, **kw))
        return seen[-1]

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", spy)
    rg = partial(read_row_group, path, 0)
    assert rg(col="w", members=pa.array([3, 4])) is seen[-1]
    assert rg(col="w", lo=3, hi=4) is seen[-1]
    schema = seen[-1].schema
    assert rg(schema, col="w", members=pa.array([3, 4])) is seen[-1]
    part = rg(col="w", members=pa.array([4]))
    assert part.to_pylist() == [{"w": 4, "v": 3.0}]
    proj = rg(["v"], col="w", lo=3, hi=4)
    assert proj.schema.names == ["v"] and proj["v"].to_pylist() == [1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# one footer read per file per run
# ---------------------------------------------------------------------------


def test_cold_run_reads_each_footer_once(ray_session, tmp_path, monkeypatch):
    from driftray.pipeline import run_validation

    d = tmp_path / "tbl"
    d.mkdir()
    rng = np.random.default_rng(1)
    for i in range(4):
        n = 50
        # the last file's row group holds two windows: its window column
        # is read on the driver, reopened with the footer already read
        w = [i] * n if i < 3 else [3] * 25 + [4] * 25
        pq.write_table(pa.table({
            "window_id": pa.array(w, pa.int64()),
            "sid": [f"f{i}-{j}" for j in range(n)],
            "val": rng.normal(10, 3, n)}), str(d / f"part{i}.parquet"))
    spec = TableSpec(name="t", columns=[ColumnSpec("sid", required=True)],
                     unique_key=("sid",), profile_columns=("val",))
    # a footer is read by opening a ParquetFile on a path without its
    # metadata, or through read_metadata / read_schema (which open the
    # ParquetFile on a file handle)
    opened: Counter = Counter()
    init = pq.ParquetFile.__init__

    def counting(self, source, *args, metadata=None, **kw):
        if metadata is None and isinstance(source, str):
            opened[source] += 1
        init(self, source, *args, metadata=metadata, **kw)

    def counted(fn):
        def wrapper(where, *args, **kw):
            opened[str(where)] += 1
            return fn(where, *args, **kw)
        return wrapper

    monkeypatch.setattr(pq.ParquetFile, "__init__", counting)
    monkeypatch.setattr(pq, "read_metadata", counted(pq.read_metadata))
    monkeypatch.setattr(pq, "read_schema", counted(pq.read_schema))
    res = run_validation(str(d), str(tmp_path / "out"), spec)
    assert [r.window_id for r in res] == [0, 1, 2, 3, 4]
    assert [r.n_rows for r in res] == [50, 50, 50, 25, 25]
    files = sorted(str(p) for p in d.glob("*.parquet"))
    assert {f: opened[f] for f in files} == {f: 1 for f in files}
