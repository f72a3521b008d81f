"""Tests for replica repair (Merkle anti-entropy) and the phi-accrual
failure detector."""

import math

import pytest

from repro.kvstore.gossip import HeartbeatMonitor, PhiAccrualDetector
from repro.kvstore.repair import (
    ReplicaRepairer,
    _bucket_of,
    differing_buckets,
    merkle_from_items,
)
from repro.kvstore.replica import Replica
from repro.kvstore.store import DistributedKVStore


def desynced_store(n=4, rf=2, lost_range=(0, 50)) -> tuple[DistributedKVStore, str]:
    """A store where one node silently missed writes (no hints, no
    degraded-key record: nothing but anti-entropy can find the gap)."""
    store = DistributedKVStore([f"n{i}" for i in range(n)], replication_factor=rf)
    victim = "n1"
    store.put_if_absent_many([f"k{i}" for i in range(*lost_range)], "v")
    store.nodes[victim]._data.clear()
    return store, victim


class TestMerkleTree:
    def test_equal_nodes_equal_roots(self):
        a, b = Replica("a"), Replica("b")
        rows = [(f"k{i}", "v", i, False) for i in range(50)]
        a.multi_put(rows)
        b.multi_put(rows)
        assert a.merkle_tree(6).root == b.merkle_tree(6).root

    def test_different_value_changes_root(self):
        a, b = Replica("a"), Replica("b")
        a.multi_put([("k", "v1", 1, False)])
        b.multi_put([("k", "v2", 1, False)])
        assert a.merkle_tree(6).root != b.merkle_tree(6).root

    def test_different_timestamp_changes_root(self):
        a, b = Replica("a"), Replica("b")
        a.multi_put([("k", "v", 1, False)])
        b.multi_put([("k", "v", 2, False)])
        assert a.merkle_tree(6).root != b.merkle_tree(6).root

    def test_differing_buckets_localize_change(self):
        a, b = Replica("a"), Replica("b")
        rows = [(f"k{i}", "v", i, False) for i in range(200)]
        a.multi_put(rows)
        b.multi_put(rows)
        b.multi_put([("k7", "changed", 999, False)])
        dirty = differing_buckets(a.merkle_tree(6), b.merkle_tree(6))
        assert len(dirty) == 1  # only the bucket containing k7

    def test_empty_trees_equal(self):
        assert Replica("a").merkle_tree(6).root == Replica("b").merkle_tree(6).root

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            Replica("a").merkle_tree(0)

    def test_mismatched_depths_rejected(self):
        a = Replica("a").merkle_tree(4)
        b = Replica("b").merkle_tree(5)
        with pytest.raises(ValueError, match="depth"):
            differing_buckets(a, b)

    def test_leaf_count(self):
        tree = Replica("a").merkle_tree(5)
        assert tree.n_buckets == 32


class TestAntiEntropy:
    def test_repair_all_restores_replication(self):
        store, _ = desynced_store()
        repairer = ReplicaRepairer(store)
        assert repairer.verify_replication()  # under-replicated before
        repairer.repair_all()
        assert repairer.verify_replication() == []

    def test_repair_streams_only_dirty_buckets(self):
        store, _ = desynced_store(lost_range=(0, 3))  # tiny divergence
        repairer = ReplicaRepairer(store, merkle_depth=8)
        stats = repairer.repair_all()
        # Far fewer buckets streamed than compared.
        assert stats.buckets_streamed < stats.buckets_compared / 4

    def test_repair_is_idempotent(self):
        store, _ = desynced_store()
        repairer = ReplicaRepairer(store)
        repairer.repair_all()
        synced_first = repairer.stats.synced_keys
        repairer.repair_all()
        assert repairer.stats.synced_keys == synced_first  # nothing new moved

    def test_repair_does_not_over_replicate(self):
        """Anti-entropy must respect placement: keys only land on their
        actual replicas, never on every node."""
        store, _ = desynced_store()
        ReplicaRepairer(store).repair_all()
        for key in store.unique_keys():
            holders = [
                nid for nid, node in store.nodes.items() if key in node.dump()
            ]
            assert sorted(holders) == sorted(store.replicas_for(key))

    def test_newest_value_wins_in_sync(self):
        store = DistributedKVStore(["a", "b"], replication_factor=2)
        store.put_if_absent_many(["k"], "old")
        # b diverges with a NEWER write a missed.
        store.nodes["b"].multi_put([("k", "newer", 10_000, False)])
        ReplicaRepairer(store).repair_all()
        assert store.nodes["a"].multi_get(["k"])["k"] == ("newer", 10_000, False)


class TestPhiAccrual:
    def test_unknown_peer_is_suspect(self):
        det = PhiAccrualDetector()
        assert det.phi("ghost", 0.0) == math.inf
        assert not det.is_available("ghost", 0.0)

    def test_fresh_heartbeat_low_phi(self):
        det = PhiAccrualDetector()
        for t in range(5):
            det.heartbeat("p", float(t))
        assert det.phi("p", 4.1) < 1.0
        assert det.is_available("p", 4.1)

    def test_silence_raises_phi(self):
        det = PhiAccrualDetector(threshold=8)
        for t in range(10):
            det.heartbeat("p", float(t))
        assert det.phi("p", 11.0) < det.phi("p", 20.0) < det.phi("p", 60.0)
        assert not det.is_available("p", 60.0)

    def test_slow_heartbeats_tolerated(self):
        """A peer that always beats every 10 s isn't suspected at 12 s."""
        det = PhiAccrualDetector(threshold=8)
        for t in range(0, 100, 10):
            det.heartbeat("slow", float(t))
        assert det.is_available("slow", 102.0)

    def test_backwards_heartbeat_rejected(self):
        det = PhiAccrualDetector()
        det.heartbeat("p", 5.0)
        det.heartbeat("p", 6.0)
        with pytest.raises(ValueError, match="backwards"):
            det.heartbeat("p", 4.0)

    def test_suspected_list(self):
        det = PhiAccrualDetector(threshold=8)
        for t in range(5):
            det.heartbeat("alive", float(t))
            det.heartbeat("dead", float(t))
        det.heartbeat("alive", 100.0)
        assert det.suspected(100.0) == ["dead"]

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PhiAccrualDetector(threshold=0)
        with pytest.raises(ValueError):
            PhiAccrualDetector(default_interval_s=0)
        with pytest.raises(ValueError):
            PhiAccrualDetector(min_std_fraction=0)


class TestHeartbeatMonitor:
    def test_sweep_marks_silent_node_down(self):
        store = DistributedKVStore(["a", "b", "c"], replication_factor=2)
        monitor = HeartbeatMonitor(store, PhiAccrualDetector(threshold=8))
        for t in range(10):
            for nid in store.nodes:
                monitor.observe(nid, float(t))
        # "c" goes silent; others keep beating.
        for t in range(10, 60):
            monitor.observe("a", float(t))
            monitor.observe("b", float(t))
        monitor.sweep(60.0)
        assert not store.nodes["c"].is_up
        assert store.nodes["a"].is_up and store.nodes["b"].is_up
        assert (60.0, "c", "down") in monitor.transitions

    def test_sweep_recovers_returning_node(self):
        store = DistributedKVStore(["a", "b"], replication_factor=2)
        monitor = HeartbeatMonitor(store)
        for t in range(5):
            monitor.observe("a", float(t))
            monitor.observe("b", float(t))
        monitor.sweep(100.0)  # both silent -> both down
        assert not store.nodes["a"].is_up
        monitor.observe("a", 101.0)
        monitor.sweep(101.5)
        assert store.nodes["a"].is_up

    def test_observe_unknown_node(self):
        store = DistributedKVStore(["a"], replication_factor=1)
        with pytest.raises(KeyError):
            HeartbeatMonitor(store).observe("ghost", 0.0)


class TestMerkleEdgeCases:
    def test_empty_range_repair_is_a_noop(self):
        store = DistributedKVStore(["a", "b"], replication_factor=2)
        stats = ReplicaRepairer(store).repair_all()
        assert stats.pairs_checked == 1
        assert stats.buckets_streamed == 0
        assert stats.synced_keys == 0

    def test_single_key_tree_localizes_to_one_bucket(self):
        rows = [("only-key", "v", 1, False)]
        tree = merkle_from_items(rows, depth=6)
        empty = merkle_from_items([], depth=6)
        assert tree.root != empty.root
        assert differing_buckets(tree, empty) == [_bucket_of("only-key", 6)]
        # Depth 1 still works: two buckets, one of them dirty.
        shallow = merkle_from_items(rows, depth=1)
        assert shallow.n_buckets == 2

    def test_single_key_pair_sync(self):
        store = DistributedKVStore(["a", "b"], replication_factor=2)
        store.put_if_absent_many(["k"], "v")
        store.nodes["b"]._data.pop("k", None)  # one replica loses its only key
        stats = ReplicaRepairer(store).repair_all()
        assert stats.synced_keys == 1
        assert "k" in store.nodes["b"].dump()

    def test_merkle_from_items_depth_bounds(self):
        with pytest.raises(ValueError):
            merkle_from_items([], depth=0)
        with pytest.raises(ValueError):
            merkle_from_items([], depth=17)

    def test_repair_with_replica_down_mid_session(self):
        """A replica that goes down between repair passes is skipped, and a
        later pass (after it recovers) still converges."""
        store, victim = desynced_store()
        store.mark_down(victim)
        repairer = ReplicaRepairer(store)
        shard_size = len(store.nodes[victim]._data)
        repairer.repair_all()  # victim down: only alive pairs compared
        assert len(store.nodes[victim]._data) == shard_size  # gained nothing
        before = repairer.stats.synced_keys
        store.mark_up(victim)  # nothing was hinted or served degraded meanwhile
        repairer.repair_all()
        assert repairer.stats.synced_keys > before
        assert ReplicaRepairer(store).verify_replication() == []


class TestStoreFailureDetectionWiring:
    def test_detected_crash_turns_writes_into_hints(self):
        store = DistributedKVStore(["a", "b", "c"], replication_factor=2)
        monitor = HeartbeatMonitor(store, PhiAccrualDetector(threshold=8))
        for t in range(10):
            for nid in ("a", "b", "c"):
                monitor.observe(nid, float(t))
        # "c" dies silently; the sweep must notice and divert its writes.
        for t in range(10, 60):
            monitor.observe("a", float(t))
            monitor.observe("b", float(t))
        monitor.sweep(60.0)
        assert (60.0, "c", "down") in monitor.transitions
        keys_on_c = [
            f"k{i}" for i in range(200) if "c" in store.replicas_for(f"k{i}")
        ][:3]
        store.put_if_absent_many(keys_on_c, "v")
        assert store.hints.pending_for("c") == len(keys_on_c)
        # It comes back: the sweep marks it up, which replays the hints.
        monitor.observe("c", 61.0)
        monitor.sweep(61.5)
        assert store.nodes["c"].is_up
        assert store.hints.pending_for("c") == 0
        for k in keys_on_c:
            assert k in store.nodes["c"].dump()

    def test_monitor_default_detector(self):
        store = DistributedKVStore(["a", "b"], replication_factor=2)
        monitor = HeartbeatMonitor(store)
        assert monitor.store is store
        assert isinstance(monitor.detector, PhiAccrualDetector)
