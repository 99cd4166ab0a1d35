"""The sorted hash run, the engine's one exact key set: ``in_sorted`` at
its edges, the dimension membership ``build_membership`` returns, the
``SeenKeysStore`` (including a store file in the format of its earlier
set-backed version), and the kernel hashing each key column once per
batch."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from driftray import checks, sketches
from driftray.checks import ValidationKernel, hash_keys, in_sorted
from driftray.fixtures import RepoFilesConfig, dimensions, repo_files_batch
from driftray.pipeline import build_membership
from driftray.sketches import HLL
from driftray.spec import repo_files_spec
from driftray.state import SeenKeysStore

HIGH = np.array([2**63, 2**63 + 5, 2**64 - 1], dtype=np.uint64)


class TestInSorted:
    def test_empty_run_is_all_false(self):
        for dtype in (np.uint64, np.int64):
            got = in_sorted(np.empty(0, dtype), np.array([0, 1, 7], dtype))
            assert got.dtype == bool and not got.any() and got.shape == (3,)
        assert in_sorted(np.empty(0, np.uint64), np.empty(0, np.uint64)).shape == (0,)

    def test_keys_below_minimum_and_above_maximum(self):
        run = np.array([10, 20, 30], dtype=np.uint64)
        keys = np.array([0, 9, 10, 15, 30, 31, 2**64 - 1], dtype=np.uint64)
        assert in_sorted(run, keys).tolist() == [False, False, True, False,
                                                 True, False, False]

    def test_uint64_hashes_at_or_above_2_63(self):
        run = np.unique(np.concatenate([np.array([1, 2], np.uint64), HIGH]))
        keys = np.array([2**63, 2**63 + 1, 2**64 - 1, 2**64 - 2, 1], np.uint64)
        assert in_sorted(run, keys).tolist() == [True, False, True, False, True]
        # the same bits probed through the int64 view
        assert in_sorted(run, keys.view(np.int64)).tolist() == [
            True, False, True, False, True]

    def test_int64_run_probed_with_uint64_hashes(self):
        hashes = np.concatenate([HIGH, np.array([3, 4], np.uint64)])
        run = np.unique(hashes.view(np.int64))        # negatives sort first
        assert run[0] < 0
        keys = np.concatenate([hashes, np.array([2**63 + 1, 5], np.uint64)])
        assert in_sorted(run, keys).tolist() == [True] * 5 + [False, False]
        assert in_sorted(run, keys.view(np.int64)).tolist() == [True] * 5 + [False, False]


def test_build_membership_is_sorted_distinct_uint64():
    dim = pa.table({"repo": ["r2", "r1", "r2", None, "r3"]})
    m = build_membership(dim, ["repo"])
    assert isinstance(m, np.ndarray) and m.dtype == np.uint64
    assert np.array_equal(m, np.unique(hash_keys(dim, ["repo"])))
    assert len(m) == 4
    probe = pa.table({"repo": ["r1", "r9", None]})
    assert in_sorted(m, hash_keys(probe, ["repo"])).tolist() == [True, False, True]


class TestSeenKeysStore:
    @staticmethod
    def _save_set_backed(hashes: set, path: str) -> None:
        """How the set-backed store wrote its file: the Python set's
        iteration order, cast to an int64 ``kh`` column."""
        arr = np.fromiter(hashes, dtype=np.uint64, count=len(hashes))
        pq.write_table(pa.table({"kh": pa.array(arr.astype(np.int64), pa.int64())}),
                       path)

    def test_loads_a_set_backed_store_file(self, tmp_path):
        keys = sketches.hash64(np.array([f"k{i}" for i in range(500)], dtype=object))
        stored = set(int(h) for h in np.concatenate([keys[:300], HIGH]))
        path = str(tmp_path / "state.parquet")
        self._save_set_backed(stored, path)
        st = SeenKeysStore.load(path)
        assert len(st) == len(stored)
        got = st.contains(np.concatenate([keys, HIGH]))
        assert got[:300].all() and not got[300:500].any() and got[500:].all()
        # and it writes the same bits back
        st.save(str(tmp_path / "again.parquet"))
        kh = pq.read_table(str(tmp_path / "again.parquet"))["kh"]
        assert kh.type == pa.int64()
        assert set(kh.to_numpy().view(np.uint64).tolist()) == stored

    def test_add_of_repeated_hashes_keeps_len_distinct(self):
        st = SeenKeysStore()
        assert len(st) == 0 and not st.contains(np.array([1], np.uint64)).any()
        st.add(np.array([5, 5, 2**64 - 1, 5], np.uint64))
        assert len(st) == 2
        st.add(np.array([2**64 - 1, 7, 7], np.uint64))
        st.add(np.empty(0, np.uint64))
        assert len(st) == 3
        assert st.contains(np.array([5, 7, 2**64 - 1, 6], np.uint64)).tolist() == [
            True, True, True, False]


def test_kernel_hashes_each_key_column_once_per_batch(monkeypatch):
    """On ``repo_files_spec`` the two foreign keys and the unique key share
    ``repo`` and ``commit``: a one-window batch hashes each of ``repo``,
    ``commit`` and ``path`` once, and every key-derived output equals what
    ``hash_keys`` gives computed directly."""
    cfg = RepoFilesConfig(seed=3, window_rows=10_000, p_orphan_repo=0.05,
                          p_bad_commit=0.05)
    batch = repo_files_batch(np.arange(2000), cfg)
    spec = repo_files_spec()
    repos, commits = dimensions(cfg)
    dims = {"repos": repos, "commits": commits}
    membership = {i: build_membership(dims[fk.dim_table], fk.dim_columns)
                  for i, fk in enumerate(spec.foreign_keys)}
    kernel = ValidationKernel(spec, membership=membership, window_column="window_id")

    calls = []
    original = checks._hash_column

    def counting(col):
        calls.append(col)
        return original(col)

    monkeypatch.setattr(checks, "_hash_column", counting)
    findings = kernel(batch).to_pylist()
    monkeypatch.undo()
    assert len(calls) == 3

    counters = {(r["check"], r["column"]): r["n"] for r in findings
                if r["kind"] == "counter"}
    for i, fk in enumerate(spec.foreign_keys):
        absent = ~in_sorted(membership[i], hash_keys(batch, fk.columns))
        assert absent.any()
        assert counters["referential", "|".join(fk.columns)] == int(absent.sum())
    h = hash_keys(batch, spec.unique_key)
    blobs = {r["check"]: r["blob"] for r in findings if r["kind"] == "sketch"
             and r["check"] in ("uniqueness", "key_hashes")}
    assert blobs["uniqueness"] == sketches.dumps(HLL().update(h))
    assert blobs["key_hashes"] == np.sort(h.view(np.int64)).tobytes()
