"""Tests for the EF-dedup system layer: config, cloud, agents, rings."""

import pytest

from repro.chunking.base import Chunk
from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.store import DistributedKVStore
from repro.system.agent import DedupAgent, LookupRecord, RingIndex
from repro.system.cloud import CentralCloudStore, CloudDedupService
from repro.system.config import EFDedupConfig
from repro.system.ring import D2Ring


class TestConfig:
    def test_defaults_are_duperemove_like(self):
        config = EFDedupConfig()
        assert config.chunk_size == 128 * 1024
        assert config.replication_factor == 2
        assert config.lookup_batch == 1

    def test_hash_time(self):
        config = EFDedupConfig(hash_mb_per_s=100.0)
        assert config.hash_time_s(100 * 1e6) == pytest.approx(1.0)

    def test_hash_time_negative_rejected(self):
        with pytest.raises(ValueError):
            EFDedupConfig().hash_time_s(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_size": 0},
            {"replication_factor": 0},
            {"vnodes": 0},
            {"hash_mb_per_s": 0.0},
            {"lookup_service_s": -1.0},
            {"lookup_batch": 0},
            {"content_batch": 0},
            {"tcp_window_bytes": 0},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            EFDedupConfig(**kwargs)

    def test_frozen(self):
        config = EFDedupConfig()
        with pytest.raises(AttributeError):
            config.chunk_size = 1  # type: ignore[misc]


class TestCentralCloudStore:
    def test_new_chunk_stored(self):
        cloud = CentralCloudStore()
        assert cloud.receive_chunk(Chunk(b"data", 0), "fp1") is True
        assert cloud.stored_chunks == 1
        assert cloud.stored_bytes == 4

    def test_duplicate_counted_as_redundant(self):
        cloud = CentralCloudStore()
        cloud.receive_chunk(Chunk(b"data", 0), "fp1")
        assert cloud.receive_chunk(Chunk(b"data", 0), "fp1") is False
        assert cloud.stored_chunks == 1
        assert cloud.received_bytes == 8
        assert cloud.redundant_bytes == 4

    def test_has_chunk(self):
        cloud = CentralCloudStore()
        cloud.receive_chunk(Chunk(b"x", 0), "fp")
        assert cloud.has_chunk("fp")
        assert not cloud.has_chunk("other")


class TestCloudDedupService:
    def test_lookup_counts(self):
        svc = CloudDedupService()
        assert svc.lookup("fp") is False
        svc.index.lookup_and_insert_many(["fp"])
        assert svc.lookup("fp") is True
        assert svc.lookups_served == 2

    def test_ingest_raw_dedups_on_arrival(self):
        svc = CloudDedupService()
        assert svc.ingest_raw_chunk(Chunk(b"aaaa", 0), "fp") is True
        assert svc.ingest_raw_chunk(Chunk(b"aaaa", 0), "fp") is False
        # Both arrivals crossed the WAN.
        assert svc.store.received_bytes == 8
        assert svc.store.stored_bytes == 4
        assert svc.stats.dedup_ratio == pytest.approx(2.0)

    def test_ingest_unique(self):
        svc = CloudDedupService()
        assert svc.ingest_unique_chunk(Chunk(b"aaaa", 0), "fp") is True
        assert svc.store.stored_chunks == 1


class TestRingIndex:
    def _store(self):
        return DistributedKVStore([f"n{i}" for i in range(4)], replication_factor=2)

    def test_requires_membership(self):
        with pytest.raises(ValueError, match="member"):
            RingIndex(self._store(), local_node="ghost")

    def test_lookup_and_insert(self):
        idx = RingIndex(self._store(), local_node="n0")
        assert idx.lookup_and_insert_many(["fp"]) == [True]
        assert idx.lookup_and_insert_many(["fp"]) == [False]
        assert idx.store.contains_many(["fp"]) == [True]
        assert len(idx) == 1

    def test_locality_accounting(self):
        store = self._store()
        idx = RingIndex(store, local_node="n0")
        for i in range(100):
            idx.lookup_and_insert_many([f"fp{i}"])
        rec = idx.lookups
        assert rec.local + rec.remote == 100
        # γ/|P| = 2/4: about half the lookups should be local.
        assert 0.25 < rec.local / 100 < 0.75

    def test_remote_peer_recorded(self):
        store = self._store()
        idx = RingIndex(store, local_node="n0")
        for i in range(50):
            idx.lookup_and_insert_many([f"fp{i}"])
        # Remote means n0 holds no replica of the key.
        remote = [i for i in range(50) if "n0" not in store.replicas_for(f"fp{i}")]
        assert remote and idx.lookups.remote == len(remote)

    def test_fingerprints_iterates_all(self):
        idx = RingIndex(self._store(), local_node="n0")
        idx.lookup_and_insert_many(["a", "b"])
        assert set(idx.fingerprints()) == {"a", "b"}


class TestLookupRecord:
    def test_remote_fraction(self):
        rec = LookupRecord(local=1, remote=1)
        assert rec.remote_fraction == pytest.approx(0.5)

    def test_empty_fraction(self):
        assert LookupRecord().remote_fraction == 0.0


class TestDedupAgent:
    def test_ingest_forwards_unique_to_sink(self):
        received = []
        store = DistributedKVStore(["n0", "n1"], replication_factor=2)
        agent = DedupAgent(
            node_id="n0",
            index=RingIndex(store, "n0"),
            config=EFDedupConfig(chunk_size=4),
            unique_sink=lambda batch: received.extend(fp for _, fp in batch),
        )
        agent.ingest(b"aaaabbbbaaaa")
        assert len(received) == 2

    def test_ingest_files(self):
        store = DistributedKVStore(["n0"], replication_factor=1)
        agent = DedupAgent("n0", RingIndex(store, "n0"), EFDedupConfig(chunk_size=4))
        results = agent.ingest_files([b"aaaa", b"aaaa"])
        assert results[0].stats.unique_chunks == 1
        assert results[1].stats.duplicate_chunks == 1
        assert agent.stats.raw_chunks == 2


class TestD2Ring:
    def _ring(self, members=3, chunk=4) -> D2Ring:
        return D2Ring(
            ring_id="r0",
            members=[f"n{i}" for i in range(members)],
            config=EFDedupConfig(chunk_size=chunk),
        )

    def test_needs_members(self):
        with pytest.raises(ValueError):
            D2Ring(ring_id="r0", members=[])

    def test_agents_share_one_index(self):
        ring = self._ring()
        ring.ingest("n0", b"aaaa")
        result = ring.ingest("n1", b"aaaa")
        assert result.stats.duplicate_chunks == 1

    def test_unknown_node_rejected(self):
        with pytest.raises(KeyError):
            self._ring().ingest("ghost", b"x")

    def test_combined_stats(self):
        ring = self._ring()
        ring.ingest("n0", b"aaaabbbb")
        ring.ingest("n1", b"aaaacccc")
        stats = ring.combined_stats()
        assert stats.raw_chunks == 4
        assert stats.unique_chunks == 3
        assert ring.dedup_ratio == pytest.approx(4 / 3)

    def test_unique_chunks_reach_cloud(self):
        ring = self._ring()
        ring.ingest("n0", b"aaaabbbb")
        ring.ingest("n1", b"aaaa")
        assert ring.cloud.stored_chunks == 2
        assert ring.cloud.received_chunks == 2  # duplicates never sent

    def test_local_lookup_fraction_tracks_gamma_over_p(self):
        ring = D2Ring(
            ring_id="r0",
            members=[f"n{i}" for i in range(4)],
            config=EFDedupConfig(chunk_size=16, replication_factor=2),
        )
        payload = bytes(range(256)) * 8
        for nid in ring.members:
            ring.ingest(nid, payload)
        observed = ring.local_lookup_fraction()
        assert 0.3 < observed < 0.7  # expected γ/|P| = 0.5

    def test_failure_and_recovery(self):
        """Sec. IV resilience: the ring dedups through a member failure and
        the member catches up via hints."""
        ring = self._ring(members=3)
        ring.ingest("n0", b"aaaa")
        ring.fail_node("n2")
        result = ring.ingest("n1", b"aaaabbbb")
        assert result.stats.duplicate_chunks == 1  # dedup still works
        ring.recover_node("n2")
        assert ring.store.hints.total_pending == 0

    def test_ingest_workloads_round_robin(self):
        ring = self._ring()
        ring.ingest_workloads(
            {
                "n0": [b"aaaa", b"bbbb"],
                "n1": [b"aaaa"],
            }
        )
        stats = ring.combined_stats()
        assert stats.raw_chunks == 3
        assert stats.unique_chunks == 2
