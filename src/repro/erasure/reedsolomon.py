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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.erasure.gf256 import gf_mat_inv, gf_matmul, gf_pow


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
        shards = [
            Shard(index=i, data=padded[i * shard_len : (i + 1) * shard_len])
            for i in range(self.k)
        ]
        data = np.frombuffer(padded, dtype=np.uint8).reshape(self.k, shard_len)
        parity = gf_matmul(self.encode_matrix[self.k :], data)
        shards += [
            Shard(index=self.k + i, data=row.tobytes())
            for i, row in enumerate(parity)
        ]
        return shards

    def decode(self, shards: list[Shard], payload_length: int) -> bytes:
        """Reconstruct the payload from any >= k distinct shards.

        Raises:
            ValueError: on fewer than k shards, duplicates, bad indexes, or
                inconsistent shard lengths.
        """
        if payload_length < 0:
            raise ValueError(f"payload_length must be >= 0, got {payload_length!r}")
        seen: dict[int, Shard] = {}
        for shard in shards:
            if not 0 <= shard.index < self.total_shards:
                raise ValueError(f"shard index {shard.index!r} out of range")
            if shard.index in seen:
                raise ValueError(f"duplicate shard index {shard.index!r}")
            seen[shard.index] = shard
        if len(seen) < self.k:
            raise ValueError(
                f"need at least k={self.k} shards to decode, got {len(seen)}"
            )
        chosen = sorted(seen.values(), key=lambda s: s.index)[: self.k]
        lengths = {len(s.data) for s in chosen}
        if len(lengths) != 1:
            raise ValueError(f"inconsistent shard lengths: {sorted(lengths)!r}")
        # Surviving data shards are the payload's own bytes; solve only
        # for the data rows that are missing.
        parts = {s.index: s.data for s in chosen if s.index < self.k}
        missing = [i for i in range(self.k) if i not in parts]
        if missing:
            inverse = gf_mat_inv(self.encode_matrix[[s.index for s in chosen], :])
            rows = np.stack([np.frombuffer(s.data, dtype=np.uint8) for s in chosen])
            for i, row in zip(missing, gf_matmul(inverse[missing], rows)):
                parts[i] = row.tobytes()
        return b"".join(parts[i] for i in range(self.k))[:payload_length]

    def reconstruct_shard(self, shards: list[Shard], missing_index: int, payload_length: int) -> Shard:
        """Rebuild one lost shard from any k survivors (repair path)."""
        payload = self.decode(shards, payload_length)
        return self.encode(payload)[missing_index]
