"""Gap-fill tests for public API the main suites exercise only indirectly."""

import pytest

from repro.analysis.workloads import chunk_upload_time_s
from repro.core.similarity import MinHasher
from repro.erasure.striped_store import ErasureCodedChunkStore
from repro.kvstore.gossip import PhiAccrualDetector
from repro.kvstore.hashring import ConsistentHashRing
from repro.kvstore.tokens import key_token
from repro.network.topology import build_testbed
from repro.sim.bandwidth import SharedLink
from repro.system.agent import LookupRecord


class TestTokenLevelRingAPI:
    def test_primary_for_token_consistent_with_key(self):
        ring = ConsistentHashRing()
        for n in ("a", "b", "c"):
            ring.add_node(n)
        for key in ("k1", "k2", "k3"):
            assert ring.primary_for_token(key_token(key)) == ring.primary_for_key(key)

    def test_walk_from_token_consistent_with_key(self):
        ring = ConsistentHashRing()
        for n in ("a", "b", "c"):
            ring.add_node(n)
        assert list(ring.walk_from_token(key_token("k"))) == list(ring.walk_from_key("k"))


class TestDetectorIntrospection:
    def test_known_peers(self):
        det = PhiAccrualDetector()
        det.heartbeat("b", 0.0)
        det.heartbeat("a", 0.0)
        assert det.known_peers() == ["a", "b"]


class TestZonesDown:
    def test_tracks_failures(self):
        store = ErasureCodedChunkStore(2, 1)
        assert store.zones_down == []
        store.fail_zone(1)
        assert store.zones_down == [1]
        store.recover_zone(1)
        assert store.zones_down == []


class TestSharedLinkIntrospection:
    def test_active_transfers(self):
        link = SharedLink(name="l", capacity_bytes_per_s=10.0)
        assert link.active_transfers == 0
        link.start_transfer(0.0, 100.0)
        link.start_transfer(0.0, 100.0)
        assert link.active_transfers == 2


class TestLookupRecordTotals:
    def test_total_lookups(self):
        assert LookupRecord(local=1, remote=2).total_lookups == 3


class TestSketchFiles:
    def test_union_over_files(self):
        hasher = MinHasher(n_hashes=32, seed=0)
        hasher.chunker = __import__(
            "repro.chunking.fixed", fromlist=["FixedSizeChunker"]
        ).FixedSizeChunker(16)
        a = hasher.sketch_files([bytes(range(64)), bytes(range(64, 128))])
        b = hasher.sketch_bytes(bytes(range(128)))
        assert a.jaccard(b) == 1.0
        assert a.set_size == 8


class TestChunkUploadTime:
    def test_matches_bandwidth(self):
        topology = build_testbed(4, 2)
        t = chunk_upload_time_s(topology, 4096)
        assert t == pytest.approx(4096 / topology.wan_bandwidth_bytes_per_s)
