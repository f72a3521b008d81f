"""Tests for cloud-aware replica placement and D2-ring membership ops."""

import pytest

from repro.kvstore.errors import ReplicationError
from repro.kvstore.hashring import ConsistentHashRing
from repro.kvstore.store import DistributedKVStore
from repro.kvstore.topology_strategy import CloudAwareReplicationStrategy
from repro.system.config import EFDedupConfig
from repro.system.ring import D2Ring


def ring_with(nodes):
    ring = ConsistentHashRing()
    for n in nodes:
        ring.add_node(n)
    return ring


CLOUDS = {"n0": "east", "n1": "east", "n2": "west", "n3": "west"}


class TestCloudAwareStrategy:
    def test_validation(self):
        with pytest.raises(ReplicationError):
            CloudAwareReplicationStrategy(0, CLOUDS)
        with pytest.raises(ReplicationError):
            CloudAwareReplicationStrategy(2, {})

    def test_gamma2_spans_both_clouds(self):
        strategy = CloudAwareReplicationStrategy(2, CLOUDS)
        ring = ring_with(CLOUDS)
        for i in range(50):
            replicas = strategy.replicas_for_key(ring, f"key-{i}")
            assert len(replicas) == 2
            assert strategy.clouds_of(replicas) == {"east", "west"}

    def test_simple_strategy_does_not_guarantee_spread(self):
        """Contrast: plain ring order co-locates some keys' replicas."""
        from repro.kvstore.replication import SimpleReplicationStrategy

        simple = SimpleReplicationStrategy(2)
        aware = CloudAwareReplicationStrategy(2, CLOUDS)
        ring = ring_with(CLOUDS)
        same_cloud = sum(
            1
            for i in range(200)
            if len(aware.clouds_of(simple.replicas_for_key(ring, f"k{i}"))) == 1
        )
        assert same_cloud > 0  # ring order sometimes picks two 'east' nodes

    def test_primary_unchanged(self):
        """The first replica is still the ring-order primary — only the
        follow-up replicas are cloud-steered."""
        strategy = CloudAwareReplicationStrategy(2, CLOUDS)
        ring = ring_with(CLOUDS)
        for i in range(20):
            key = f"key-{i}"
            assert strategy.replicas_for_key(ring, key)[0] == ring.primary_for_key(key)

    def test_tops_up_when_gamma_exceeds_clouds(self):
        strategy = CloudAwareReplicationStrategy(3, CLOUDS)
        ring = ring_with(CLOUDS)
        replicas = strategy.replicas_for_key(ring, "key")
        assert len(replicas) == 3
        assert len(set(replicas)) == 3

    def test_unmapped_node_rejected(self):
        strategy = CloudAwareReplicationStrategy(2, {"n0": "east"})
        ring = ring_with(["n0", "nX"])
        with pytest.raises(ReplicationError, match="edge cloud"):
            strategy.replicas_for_key(ring, "key")

    def test_deterministic(self):
        strategy = CloudAwareReplicationStrategy(2, CLOUDS)
        ring = ring_with(CLOUDS)
        assert strategy.replicas_for_key(ring, "k") == strategy.replicas_for_key(ring, "k")

    def test_store_integration_cloud_failure_survivable(self):
        """With cloud-aware placement, killing every node of one edge cloud
        leaves every key readable at level ONE."""
        store = DistributedKVStore(
            list(CLOUDS),
            replication_factor=2,
            strategy=CloudAwareReplicationStrategy(2, CLOUDS),
        )
        keys = [f"k{i}" for i in range(100)]
        store.put_if_absent_many(keys, "v")
        store.mark_down("n0")
        store.mark_down("n1")  # all of "east" gone
        unreadable = [k for k, held in zip(keys, store.contains_many(keys)) if not held]
        assert unreadable == [], f"{unreadable} unreadable after cloud outage"


class TestD2RingMembership:
    def _ring(self):
        return D2Ring(
            "r",
            ["n0", "n1", "n2"],
            config=EFDedupConfig(chunk_size=4, replication_factor=2),
        )

    def test_add_member_dedups_against_existing_index(self):
        ring = self._ring()
        ring.ingest("n0", b"aaaa")
        ring.add_member("n3")
        result = ring.ingest("n3", b"aaaa")
        assert result.stats.duplicate_chunks == 1

    def test_add_existing_rejected(self):
        ring = self._ring()
        with pytest.raises(ValueError, match="already"):
            ring.add_member("n0")

    def test_remove_member_preserves_index(self):
        ring = self._ring()
        ring.ingest("n0", b"aaaabbbb")
        ring.remove_member("n1")
        result = ring.ingest("n2", b"aaaa")
        assert result.stats.duplicate_chunks == 1
        assert "n1" not in ring.agents

    def test_remove_unknown_rejected(self):
        with pytest.raises(KeyError):
            self._ring().remove_member("ghost")

    def test_remove_last_member_rejected(self):
        ring = D2Ring("r", ["only"], config=EFDedupConfig(chunk_size=4))
        with pytest.raises(ValueError, match="last member"):
            ring.remove_member("only")

    def test_cloud_aware_ring_spans_clouds(self):
        ring = D2Ring(
            "r",
            list(CLOUDS),
            config=EFDedupConfig(chunk_size=4, replication_factor=2),
            cloud_of_member=CLOUDS,
        )
        ring.ingest("n0", bytes(64))
        fp = next(iter(ring.store.unique_keys()))
        replicas = ring.store.replicas_for(fp)
        assert {CLOUDS[r] for r in replicas} == {"east", "west"}
