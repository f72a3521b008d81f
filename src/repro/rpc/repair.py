"""Merkle anti-entropy over the wire: catch-up for rejoining replicas.

There is one repairer, :class:`~repro.kvstore.repair.ReplicaRepairer`,
written against the replica transport; over a live ring's
:class:`~repro.rpc.remote_store.RemoteKVStore` its tree, bucket and push
steps are ``merkle_tree`` / ``repair_range`` / ``multi_put`` RPCs. This
module keeps the name live-ring callers import.
"""

from repro.kvstore.repair import ReplicaRepairer as RemoteReplicaRepairer

__all__ = ["RemoteReplicaRepairer"]
