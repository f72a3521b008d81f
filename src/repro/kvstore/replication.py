"""Replica placement.

Implements Cassandra's SimpleStrategy: the replicas of a key are the first
``replication_factor`` distinct physical nodes clockwise from the key's
token. The paper deploys its per-ring Cassandra clusters with the random
partitioner and replication factor 2; the replication factor here is the γ
of Eq. 2 — each chunk hash lives on γ ring members, so a node finds the hash
locally with probability γ/|P|.
"""

from __future__ import annotations

from repro.kvstore.errors import ReplicationError
from repro.kvstore.hashring import ConsistentHashRing


class SimpleReplicationStrategy:
    """First-N-clockwise replica placement.

    Args:
        replication_factor: γ — copies kept of every key. When the ring has
            fewer nodes than γ, every node is a replica (Cassandra behaves
            the same way).
    """

    def __init__(self, replication_factor: int = 2) -> None:
        if replication_factor < 1:
            raise ReplicationError(
                f"replication factor must be >= 1, got {replication_factor!r}"
            )
        self.replication_factor = replication_factor

    def replicas_for_key(self, ring: ConsistentHashRing, key: str) -> list[str]:
        """Ordered replica list for ``key`` (primary first)."""
        return ring.placement(key, self.select)

    def select(self, walk: list[str]) -> list[str]:
        """The replicas of a key whose distinct-owner walk is ``walk``."""
        return walk[: self.replication_factor]

    def effective_factor(self, ring: ConsistentHashRing) -> int:
        """The replica count actually achievable on ``ring``."""
        return min(self.replication_factor, len(ring))
