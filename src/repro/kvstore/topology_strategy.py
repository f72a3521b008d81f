"""Failure-domain-aware replica placement.

Cassandra's NetworkTopologyStrategy spreads a key's replicas across racks /
datacenters so one failure domain can't take out every copy. The EF-dedup
analogue: a D2-ring spanning several *edge clouds* should put a chunk
hash's γ replicas in *distinct edge clouds* whenever the ring allows, so a
whole-cloud outage (power, backhaul) leaves the index readable.

:class:`CloudAwareReplicationStrategy` walks the consistent-hash ring like
SimpleStrategy but skips nodes whose edge cloud is already represented,
falling back to ring order once every cloud has one replica. Placement is
still deterministic per key.
"""

from __future__ import annotations

from typing import Mapping

from repro.kvstore.errors import ReplicationError
from repro.kvstore.hashring import ConsistentHashRing


class CloudAwareReplicationStrategy:
    """First-N-clockwise placement preferring distinct edge clouds.

    Args:
        replication_factor: γ — copies per key.
        cloud_of_node: node id → edge-cloud label. Every cluster member must
            be listed; membership changes require a rebuilt strategy (the
            store's add/remove paths construct placement fresh per key, so
            passing an updated mapping is enough).
    """

    def __init__(self, replication_factor: int, cloud_of_node: Mapping[str, str]) -> None:
        if replication_factor < 1:
            raise ReplicationError(
                f"replication factor must be >= 1, got {replication_factor!r}"
            )
        if not cloud_of_node:
            raise ReplicationError("cloud_of_node must not be empty")
        self.replication_factor = replication_factor
        self.cloud_of_node = dict(cloud_of_node)

    def replicas_for_key(self, ring: ConsistentHashRing, key: str) -> list[str]:
        """Ordered replica list: distinct clouds first, then ring order."""
        return ring.placement(key, self.select)

    def select(self, walk: list[str]) -> list[str]:
        """The replicas of a key whose distinct-owner walk is ``walk``."""
        for node in walk:
            if node not in self.cloud_of_node:
                raise ReplicationError(
                    f"node {node!r} is on the ring but has no edge cloud assigned"
                )
        chosen: list[str] = []
        used_clouds: set[str] = set()
        # Pass 1: one replica per edge cloud, in ring order.
        for node in walk:
            if len(chosen) == self.replication_factor:
                break
            cloud = self.cloud_of_node[node]
            if cloud not in used_clouds:
                chosen.append(node)
                used_clouds.add(cloud)
        # Pass 2: top up from the remaining ring order when γ exceeds the
        # number of clouds represented.
        for node in walk:
            if len(chosen) == self.replication_factor:
                break
            if node not in chosen:
                chosen.append(node)
        return chosen

    def effective_factor(self, ring: ConsistentHashRing) -> int:
        return min(self.replication_factor, len(ring))

    def clouds_of(self, replicas: list[str]) -> set[str]:
        """Distinct edge clouds covered by a replica list (diagnostic)."""
        return {self.cloud_of_node[r] for r in replicas}
