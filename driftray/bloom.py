"""Bloom filter for broadcast membership (referential semi/anti-joins).

Engine-side replacement for the reference's exact in-process seen-sets
(``/root/reference/src/data_sources/web/news.py:365,560-573``) when the key
side is too large to ship exactly: build once from the dimension keys on
the driver; the bit array travels inside the validation kernel, which Ray
Data puts in the object store once per execution, and is probed in the
kernel's ``map_batches`` tasks.  Bloom
filters have NO false negatives, so "definitely absent" rows are exact
violations; positives can be verified exactly per-partition when needed
(two-tier check, SURVEY.md §7 hard part 5).
"""

from __future__ import annotations

import math

import numpy as np

from .sketches import hash64

_MIX = np.uint64(0x9E3779B97F4A7C15)  # golden-ratio odd constant for 2nd hash


class BloomFilter:
    __slots__ = ("n_bits", "k", "bits")

    def __init__(self, capacity: int, fpr: float = 1e-3) -> None:
        capacity = max(int(capacity), 1)
        n_bits = int(-capacity * math.log(fpr) / (math.log(2) ** 2))
        self.n_bits = max(64, n_bits)
        self.k = max(1, round(self.n_bits / capacity * math.log(2)))
        self.bits = np.zeros((self.n_bits + 63) // 64, dtype=np.uint64)

    @classmethod
    def from_state(cls, n_bits: int, k: int, bits: bytes) -> "BloomFilter":
        """Rebuild a filter from persisted state (sidecar indexes —
        `ops/zonemap.build_bloom_index` stores ``bits.tobytes()``)."""
        bf = cls.__new__(cls)
        bf.n_bits = int(n_bits)
        bf.k = int(k)
        bf.bits = np.frombuffer(bits, dtype=np.uint64).copy()
        return bf

    def _positions(self, values: np.ndarray) -> np.ndarray:
        """(k, n) bit positions via double hashing h1 + i*h2."""
        h1 = hash64(values)
        h2 = (h1 ^ _MIX) * _MIX | np.uint64(1)  # odd ⇒ cycles all residues
        i = np.arange(self.k, dtype=np.uint64)[:, None]
        return (h1[None, :] + i * h2[None, :]) % np.uint64(self.n_bits)

    def add(self, values: np.ndarray) -> "BloomFilter":
        pos = self._positions(np.asarray(values)).ravel()
        word, bit = pos >> np.uint64(6), pos & np.uint64(63)
        np.bitwise_or.at(self.bits, word.astype(np.int64), np.uint64(1) << bit)
        return self

    def contains(self, values: np.ndarray) -> np.ndarray:
        """Vectorized membership: True = maybe present, False = definitely absent."""
        arr = np.asarray(values)
        if arr.size == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(arr)
        word, bit = pos >> np.uint64(6), pos & np.uint64(63)
        hit = (self.bits[word.astype(np.int64)] >> bit) & np.uint64(1)
        return hit.all(axis=0).astype(bool)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        assert self.n_bits == other.n_bits and self.k == other.k
        np.bitwise_or(self.bits, other.bits, out=self.bits)
        return self
