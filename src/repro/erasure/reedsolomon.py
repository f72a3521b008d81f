"""Systematic Reed–Solomon erasure coding.

The paper's future work proposes erasure-coding stored replicas "to make
the data more reliable and save more storage space": an RS(k, m) code keeps
availability through any m shard losses at a storage overhead of m/k —
versus the 2× of the prototype's replication factor 2.

Construction: start from a (k+m)×k Vandermonde matrix over distinct field
elements, then right-multiply by the inverse of its top k×k block. The top
becomes the identity (systematic: data shards are stored verbatim) and any
k rows of the result remain linearly independent, so any k surviving shards
reconstruct the data.

Solving for lost shards is per *survivor set*, not per chunk: the rows that
express every shard of the stripe as a combination of k given survivors are
computed once (one small matrix inversion) and kept in a bounded per-code
cache, so a degraded read or a repair pays only the byte arithmetic for the
shards it is actually missing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.erasure.gf256 import gf_dot, gf_mat_inv, gf_matmul, gf_pow

# Survivor sets whose solved rows a code keeps. RS(3,2) has 10 and RS(4,2)
# has 15, so they never evict; RS(10,4) has 1001, of which an outage
# exercises the few its down zones produce.
SOLVE_CACHE_MAX = 64


def _vandermonde(rows: int, cols: int) -> np.ndarray:
    v = np.zeros((rows, cols), dtype=np.uint8)
    for r in range(rows):
        for c in range(cols):
            v[r, c] = gf_pow(r + 1, c)
    return v


@dataclass(frozen=True)
class Shard:
    """One erasure-coded shard: its index in the stripe and its bytes."""

    index: int
    data: bytes


class ReedSolomonCode:
    """An RS(k, m) systematic erasure code over GF(256).

    Args:
        data_shards: k — shards the payload is split into.
        parity_shards: m — extra shards; any m losses are recoverable.
    """

    def __init__(self, data_shards: int, parity_shards: int) -> None:
        if data_shards < 1:
            raise ValueError(f"data_shards must be >= 1, got {data_shards!r}")
        if parity_shards < 0:
            raise ValueError(f"parity_shards must be >= 0, got {parity_shards!r}")
        if data_shards + parity_shards > 255:
            raise ValueError(
                f"k + m must be <= 255 in GF(256), got {data_shards + parity_shards}"
            )
        self.k = data_shards
        self.m = parity_shards
        vander = _vandermonde(self.k + self.m, self.k)
        top_inv = gf_mat_inv(vander[: self.k])
        self.encode_matrix = gf_matmul(top_inv.T, vander.T).T  # (k+m) × k
        # Guard the construction: the top block must be the identity.
        assert np.array_equal(self.encode_matrix[: self.k], np.eye(self.k, dtype=np.uint8))
        self._parity_rows: list[list[int]] = self.encode_matrix[self.k :].tolist()
        # survivor indexes -> (k+m) rows; row i gives shard i from those survivors
        self._solved: dict[tuple[int, ...], list[list[int]]] = {}
        self._solve_lock = threading.Lock()

    @property
    def total_shards(self) -> int:
        return self.k + self.m

    @property
    def storage_overhead(self) -> float:
        """Stored bytes per payload byte (1 + m/k)."""
        return 1.0 + self.m / self.k

    # ------------------------------------------------------------------ #

    def _shard_length(self, payload_length: int) -> int:
        return (payload_length + self.k - 1) // self.k

    def encode(self, payload: bytes) -> list[Shard]:
        """Split ``payload`` into k data shards and compute m parity shards.

        The payload is zero-padded to a multiple of k; ``decode`` needs the
        original length to strip the padding.
        """
        shard_len = max(1, self._shard_length(len(payload)))
        padded = payload + b"\x00" * (shard_len * self.k - len(payload))
        # Systematic code: the data shards are slices of the payload; only
        # the m parity rows cost field arithmetic.
        parts = [padded[i * shard_len : (i + 1) * shard_len] for i in range(self.k)]
        parts += [gf_dot(row, parts) for row in self._parity_rows]
        return [Shard(index=i, data=data) for i, data in enumerate(parts)]

    def _choose(
        self, shards: list[Shard], payload_length: int
    ) -> tuple[tuple[int, ...], list[bytes]]:
        """Validate ``shards`` and pick the k lowest-indexed to solve from:
        their indexes (ascending) and their bytes, in the same order."""
        if payload_length < 0:
            raise ValueError(f"payload_length must be >= 0, got {payload_length!r}")
        seen: dict[int, bytes] = {}
        for shard in shards:
            if not 0 <= shard.index < self.total_shards:
                raise ValueError(f"shard index {shard.index!r} out of range")
            if shard.index in seen:
                raise ValueError(f"duplicate shard index {shard.index!r}")
            seen[shard.index] = shard.data
        if len(seen) < self.k:
            raise ValueError(
                f"need at least k={self.k} shards to decode, got {len(seen)}"
            )
        indexes = tuple(sorted(seen)[: self.k])
        blocks = [seen[index] for index in indexes]
        lengths = {len(block) for block in blocks}
        if len(lengths) != 1:
            raise ValueError(f"inconsistent shard lengths: {sorted(lengths)!r}")
        capacity = self.k * lengths.pop()
        if payload_length > capacity:
            raise ValueError(
                f"payload_length {payload_length!r} exceeds the {capacity} bytes "
                f"the shards hold"
            )
        return indexes, blocks

    def _solved_rows(self, survivors: tuple[int, ...]) -> list[list[int]]:
        """Coefficient rows over ``survivors`` (k shard indexes, ascending):
        row i combines the survivors' bytes into shard i of the stripe."""
        rows = self._solved.get(survivors)
        if rows is None:
            inverse = gf_mat_inv(self.encode_matrix[list(survivors), :])
            rows = gf_matmul(self.encode_matrix, inverse).tolist()
            # Hits read the dict without the lock; only eviction + insert,
            # a check-then-act on its size, needs it.
            with self._solve_lock:
                while len(self._solved) >= SOLVE_CACHE_MAX:
                    del self._solved[next(iter(self._solved))]  # oldest first
                self._solved[survivors] = rows
        return rows

    def decode(self, shards: list[Shard], payload_length: int) -> bytes:
        """Reconstruct the payload from any >= k distinct shards.

        Raises:
            ValueError: on fewer than k shards, duplicates, bad indexes,
                inconsistent shard lengths, or a ``payload_length`` the
                shards cannot hold.
        """
        indexes, blocks = self._choose(shards, payload_length)
        if indexes[-1] >= self.k:
            # Surviving data shards are the payload's own bytes; solve only
            # for the data rows that are missing.
            rows = self._solved_rows(indexes)
            have = dict(zip(indexes, blocks))
            blocks = [
                have[i] if i in have else gf_dot(rows[i], blocks)
                for i in range(self.k)
            ]
        return b"".join(blocks)[:payload_length]

    def reconstruct_shard(self, shards: list[Shard], missing_index: int, payload_length: int) -> Shard:
        """Rebuild one lost shard from any k survivors (repair path): only
        that shard's row is computed, never the payload or its siblings."""
        if not 0 <= missing_index < self.total_shards:
            raise ValueError(f"shard index {missing_index!r} out of range")
        indexes, blocks = self._choose(shards, payload_length)
        row = self._solved_rows(indexes)[missing_index]
        return Shard(index=missing_index, data=gf_dot(row, blocks))
