"""Persisted cross-run state: the seen-keys store.

The reference keeps dedup state in an in-process set that grows without
bound and dies with the process (``/root/reference/src/data_sources/web/
news.py:365,560-573``).  The engine's replacement is a checkpointed store
of uint64 KEY HASHES (8 bytes/key) persisted as Parquet between runs and
held in memory as one sorted run of distinct hashes:

* ``contains`` — ``checks.in_sorted``, one binary search per probed
  hash: exact against the stored hashes (a raw-key hash collision can
  only FALSE-SEEN a new key at ~n/2^64 — the same documented
  approximation as the uniqueness/referential checks).
* memory-bounded at scale: hashes live in one numpy array; 10^9 keys =
  8 GB, shardable by hash range when that outgrows one node.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .checks import in_sorted


class SeenKeysStore:
    def __init__(self, hashes: np.ndarray | None = None):
        self.hashes = np.unique(np.asarray(
            hashes if hashes is not None else [], dtype=np.uint64))

    @classmethod
    def load(cls, path: str) -> "SeenKeysStore":
        if not os.path.exists(path):
            return cls()
        # an int64 ``kh`` column holding the hashes' bits
        return cls(pq.read_table(path)["kh"].to_numpy().view(np.uint64))

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = path + ".tmp"
        pq.write_table(pa.table({"kh": pa.array(self.hashes.view(np.int64))}), tmp)
        os.replace(tmp, path)  # atomic: a killed run never half-writes state

    def contains(self, key_hashes: np.ndarray) -> np.ndarray:
        """Vectorized probe: True = seen before."""
        return in_sorted(self.hashes, np.asarray(key_hashes, dtype=np.uint64))

    def add(self, key_hashes: np.ndarray) -> None:
        self.hashes = np.union1d(self.hashes,
                                 np.asarray(key_hashes, dtype=np.uint64))

    def __len__(self) -> int:
        return len(self.hashes)
