"""Replica repair: Merkle-tree anti-entropy.

Hinted handoff (``repro.kvstore.hints``) covers failures the coordinator
*sees*; entropy still creeps in when hints overflow or a node misses writes
silently. Cassandra closes the gap with anti-entropy repair, reproduced
here: replicas exchange Merkle trees over their key ranges and stream only
the keys under mismatching subtrees, instead of diffing entire datasets.
(A client read never repairs: the index is read by the batch, which only
reads.)

A D2-ring that has been through failures runs ``repair_all`` to restore the
γ-copies invariant before, e.g., decommissioning a node; a member that
rejoins after a crash is caught up with ``repair_node`` — hinted handoff
replays what the coordinator saw while it was down, the Merkle pass closes
whatever the hint window dropped.

The pairwise protocol moves only summaries and dirty buckets between
replicas:

1. ask both for their fixed-depth Merkle trees;
2. diff the leaf hashes (:func:`differing_buckets`);
3. fetch just the mismatching buckets from both sides;
4. push each side's strictly-newer rows to the other, filtered to keys the
   receiver is actually responsible for.

Trees and bucket reads are control-plane replica verbs (they read the shard
directly), so a replica that is still marked down can be *compared*; pushes
go through the data plane and therefore land in the receiver's WAL.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.kvstore.coordinator import driven
from repro.kvstore.errors import NoSuchNodeError
from repro.kvstore.merkle import (  # noqa: F401  (the tree algebra is re-exported here)
    MerkleTree,
    _bucket_of,
    differing_buckets,
    merkle_from_items,
)
from repro.kvstore.node import merge_newest, newer


@dataclass
class RepairStats:
    """Outcome accounting for repair operations."""

    synced_keys: int = 0
    buckets_compared: int = 0
    buckets_streamed: int = 0
    pairs_checked: int = 0


class ReplicaRepairer:
    """Pairwise Merkle anti-entropy over a coordinator's replicas, on
    whichever transport it runs.

    Args:
        store: the :class:`~repro.kvstore.coordinator.QuorumCoordinator`
            whose membership, placement, and transport the repairer reuses.
        merkle_depth: tree depth (2**depth buckets).
    """

    def __init__(self, store, merkle_depth: int = 6) -> None:
        if not 1 <= merkle_depth <= 16:
            raise ValueError(f"merkle_depth must be in [1, 16], got {merkle_depth!r}")
        self.store = store
        self.drive = store.drive
        self.merkle_depth = merkle_depth
        self.stats = RepairStats()

    # ------------------------------------------------------------------ #
    # anti-entropy
    # ------------------------------------------------------------------ #

    async def _sync_pair(self, a: str, b: str) -> None:
        """Merkle-diff two replicas and exchange keys in differing buckets."""
        transport = self.store.transport
        tree_a, tree_b = await transport.gather(
            transport.merkle_tree(a, self.merkle_depth),
            transport.merkle_tree(b, self.merkle_depth),
        )
        self.stats.pairs_checked += 1
        self.stats.buckets_compared += tree_a.n_buckets
        dirty = differing_buckets(tree_a, tree_b)
        if not dirty:
            return
        self.stats.buckets_streamed += len(dirty)
        entries_a, entries_b = await transport.gather(
            transport.repair_range(a, self.merkle_depth, dirty),
            transport.repair_range(b, self.merkle_depth, dirty),
        )
        for src_entries, dst, dst_entries in (
            (entries_a, b, entries_b),
            (entries_b, a, entries_a),
        ):
            rows = [
                (key, *entry)
                for key, entry in sorted(src_entries.items())
                if newer(entry, dst_entries.get(key))
                # Only stream keys this replica is actually responsible for.
                and dst in self.store.replicas_for(key)
            ]
            if rows:
                await transport.multi_put(dst, rows)
                self.stats.synced_keys += len(rows)

    @driven
    async def repair_node(self, node_id: str) -> RepairStats:
        """Catch ``node_id`` up: sync it pairwise against every other
        alive member (the rejoin path after a crash-restart)."""
        if node_id not in self.store.nodes:
            raise NoSuchNodeError(f"node {node_id!r} is not in the cluster")
        for peer in self.store.alive_nodes():
            if peer != node_id:
                await self._sync_pair(node_id, peer)
        return self.stats

    @driven
    async def repair_all(self) -> RepairStats:
        """Run anti-entropy between every pair of alive replicas (all-pairs
        is exact and fine at the ring sizes here)."""
        for a, b in itertools.combinations(self.store.alive_nodes(), 2):
            await self._sync_pair(a, b)
        return self.stats

    @driven
    async def verify_replication(self) -> list[str]:
        """Keys currently under-replicated on alive nodes (diagnostic; empty
        once a repair pass has converged the ring)."""
        transport = self.store.transport
        members = list(self.store.nodes)
        shards = dict(
            zip(members, await transport.gather(*(transport.dump(n) for n in members)))
        )
        missing: list[str] = []
        for key, (_, _, tombstone) in sorted(merge_newest(shards.values()).items()):
            if tombstone:
                continue
            for replica in self.store.replicas_for(key):
                _, _, gone = shards[replica].get(key, (None, 0, True))  # absent or deleted
                if self.store.is_up(replica) and gone:
                    missing.append(key)
                    break
        return missing
