"""Fixed-depth Merkle trees over a replica's key range.

Anti-entropy (:mod:`repro.kvstore.repair`) compares two replicas by
exchanging these summaries and streams only the keys under mismatching
leaves, instead of diffing entire datasets.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

from repro.kvstore.node import Row


@dataclass(frozen=True)
class MerkleTree:
    """A fixed-depth hash tree over a node's key range.

    Keys are bucketed by the leading bits of their MD5 token; leaf hashes
    cover the sorted (key, value, timestamp, tombstone) tuples in the bucket
    and internal hashes combine children, so equal subtrees guarantee equal
    bucket contents.
    """

    depth: int
    leaves: tuple[str, ...]  # 2**depth leaf hashes
    root: str

    @property
    def n_buckets(self) -> int:
        return len(self.leaves)


_EMPTY_LEAF = hashlib.sha256(b"empty").hexdigest()


def _bucket_of(key: str, depth: int) -> int:
    digest = hashlib.md5(key.encode("utf-8")).digest()
    prefix = int.from_bytes(digest[:4], "big")
    return prefix >> (32 - depth)


def merkle_from_items(
    items: Iterable[Row], depth: int = 6
) -> MerkleTree:
    """Build a Merkle tree from raw ``(key, value, timestamp, tombstone)``
    rows — the operator view a node server exposes over RPC, which must
    work regardless of the replica's up/down flag."""
    if not 1 <= depth <= 16:
        raise ValueError(f"depth must be in [1, 16], got {depth!r}")
    buckets: list[list[Row]] = [[] for _ in range(2**depth)]
    for key, value, ts, tombstone in items:
        buckets[_bucket_of(key, depth)].append((key, value, ts, tombstone))
    leaves = []
    for bucket in buckets:
        if not bucket:
            leaves.append(_EMPTY_LEAF)
            continue
        h = hashlib.sha256()
        for key, value, ts, tombstone in sorted(bucket):
            h.update(f"{key}\x00{value}\x00{ts}\x00{int(tombstone)}\x01".encode("utf-8"))
        leaves.append(h.hexdigest())
    level = leaves
    while len(level) > 1:
        level = [
            hashlib.sha256((level[i] + level[i + 1]).encode()).hexdigest()
            for i in range(0, len(level), 2)
        ]
    return MerkleTree(depth=depth, leaves=tuple(leaves), root=level[0])


def differing_buckets(a: MerkleTree, b: MerkleTree) -> list[int]:
    """Bucket indexes whose contents differ between two trees."""
    if a.depth != b.depth:
        raise ValueError(f"tree depths differ: {a.depth} vs {b.depth}")
    if a.root == b.root:
        return []
    return [i for i, (la, lb) in enumerate(zip(a.leaves, b.leaves)) if la != lb]
