"""Distributed key-value store substrate (Cassandra replacement).

Consistent-hash ring with virtual nodes, MD5 random partitioner, γ-way
replication, tunable consistency, failure injection, and hinted handoff —
the index backbone of each D2-ring. Three layers: the coordinator
(``coordinator.py``, every protocol decision) reaches each member's replica
(``replica.py``, shard + chunk shelf) through a replica transport
(``transport.py``: method call here, framed RPC in :mod:`repro.rpc`).
"""

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.coordinator import StoreStats
from repro.kvstore.errors import (
    KVStoreError,
    NoSuchNodeError,
    NodeDownError,
    ReplicationError,
    RingEmptyError,
    UnavailableError,
)
from repro.kvstore.gossip import HeartbeatMonitor, PhiAccrualDetector
from repro.kvstore.hashring import ConsistentHashRing
from repro.kvstore.hints import Hint, HintBuffer
from repro.kvstore.node import Entry
from repro.kvstore.repair import (
    MerkleTree,
    RepairStats,
    ReplicaRepairer,
    differing_buckets,
    merkle_from_items,
)
from repro.kvstore.replication import SimpleReplicationStrategy
from repro.kvstore.store import DistributedKVStore
from repro.kvstore.topology_strategy import CloudAwareReplicationStrategy
from repro.kvstore.tokens import TOKEN_SPACE, key_token, node_token, token_distance
from repro.kvstore.wal import WalStats, WriteAheadLog

__all__ = [
    "CloudAwareReplicationStrategy",
    "ConsistencyLevel",
    "ConsistentHashRing",
    "DistributedKVStore",
    "Entry",
    "HeartbeatMonitor",
    "Hint",
    "HintBuffer",
    "KVStoreError",
    "MerkleTree",
    "NoSuchNodeError",
    "NodeDownError",
    "PhiAccrualDetector",
    "RepairStats",
    "ReplicaRepairer",
    "ReplicationError",
    "RingEmptyError",
    "SimpleReplicationStrategy",
    "StoreStats",
    "TOKEN_SPACE",
    "UnavailableError",
    "WalStats",
    "WriteAheadLog",
    "differing_buckets",
    "key_token",
    "merkle_from_items",
    "node_token",
    "token_distance",
]
