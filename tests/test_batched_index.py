"""Tests for batched fingerprint lookups (``lookup_and_insert_many``).

A stream claimed in batches of any size must be semantically identical to
the same stream claimed in batches of one on every index backend — same
results, same index contents, same per-key counters — while collapsing the
*network* accounting to one round trip per batch (distinct
coordinator→replica contacts instead of per-key contacts).
"""

import math
import random

import numpy as np
import pytest

from repro.dedup.brownout import BrownoutIndex
from repro.dedup.cache import LRUCacheIndex, ModelGuidedCacheIndex
from repro.dedup.engine import DedupEngine
from repro.dedup.index import InMemoryIndex
from repro.chunking.fixed import FixedSizeChunker
from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.store import DistributedKVStore
from repro.obs import series
from repro.system.agent import RingIndex
from repro.system.migration import DualLookupIndex, MigrationReport


def _fingerprints(n: int, pool: int, seed: int = 0) -> list[str]:
    """A stream of fingerprints with repeats (pool < n forces duplicates)."""
    rng = np.random.default_rng(seed)
    return [f"fp-{int(i):06d}" for i in rng.integers(0, pool, size=n)]


NODES = [f"edge-{i}" for i in range(6)]


def _index_factories():
    return [
        pytest.param(lambda: InMemoryIndex(), id="in-memory"),
        pytest.param(
            lambda: RingIndex(DistributedKVStore(NODES), local_node="edge-0"),
            id="ring",
        ),
        pytest.param(lambda: LRUCacheIndex(InMemoryIndex(), capacity=64), id="lru-cache"),
        pytest.param(
            lambda: ModelGuidedCacheIndex(
                InMemoryIndex(), scorer=lambda fp: 1.0, capacity=64
            ),
            id="model-cache",
        ),
        pytest.param(
            lambda: BrownoutIndex(InMemoryIndex(), trip_on=(ConnectionError,)),
            id="brownout",
        ),
        pytest.param(_dual_lookup, id="dual-lookup"),
    ]


def _dual_lookup() -> DualLookupIndex:
    """A cutover window whose source ring already holds a third of the pool."""
    source = InMemoryIndex()
    source.lookup_and_insert_many(_fingerprints(60, pool=120, seed=11))
    return DualLookupIndex(
        InMemoryIndex(),
        fallback=lambda fps: [source.contains(fp) for fp in fps],
        report=MigrationReport(),
    )


def _counters(index) -> tuple:
    """Every per-key counter an index keeps (round counts excluded)."""
    if isinstance(index, RingIndex):
        stats = index.store.stats
        return (
            index.lookups.local, index.lookups.remote,
            stats.reads, stats.writes, stats.local_reads, stats.remote_reads,
        )
    if isinstance(index, LRUCacheIndex):
        return series(index.stats), list(index._cache)
    if isinstance(index, BrownoutIndex):
        return series(index.stats), index.active, index.journal
    if isinstance(index, DualLookupIndex):
        return index.report.dual_lookup_probes, index.report.dual_lookup_hits
    return ()


@pytest.mark.parametrize("make_index", _index_factories())
class TestBatchedMatchesLooped:
    def test_same_results_and_contents(self, make_index):
        """A stream split into random batches ≡ the stream in batches of one."""
        fps = _fingerprints(500, pool=120)
        one_by_one = make_index()
        batched_index = make_index()
        looped = [one_by_one.lookup_and_insert_many([fp], metadata="src")[0] for fp in fps]
        rng = random.Random(5)
        lo = 0
        while lo < len(fps):  # ragged batches, incl. a partial tail
            size = rng.randrange(1, 50)
            got = batched_index.lookup_and_insert_many(fps[lo : lo + size], metadata="src")
            assert got == looped[lo : lo + size]
            lo += size
        assert len(batched_index) == len(one_by_one)
        assert set(batched_index.fingerprints()) == set(one_by_one.fingerprints())
        assert _counters(batched_index) == _counters(one_by_one)
        assert any(looped) and not all(looped)

    def test_intra_batch_duplicates(self, make_index):
        """A fingerprint repeated inside one batch: first occurrence is new,
        the rest are duplicates — same as the sequential loop."""
        index = make_index()
        assert index.lookup_and_insert_many(["a", "b", "a", "a", "b"]) == [
            True,
            True,
            False,
            False,
            False,
        ]

    def test_empty_batch(self, make_index):
        index = make_index()
        assert index.lookup_and_insert_many([]) == []


class TestStoreBatchAccounting:
    def test_results_match_sequential(self):
        fps = _fingerprints(300, pool=90, seed=1)
        seq_store = DistributedKVStore(NODES)
        batch_store = DistributedKVStore(NODES)
        seq = [seq_store.put_if_absent_many([fp], "v", coordinator="edge-0")[0] for fp in fps]
        got = batch_store.put_if_absent_many(fps, "v", coordinator="edge-0")
        assert got == seq
        assert batch_store.unique_keys() == seq_store.unique_keys()
        # Per-key read/write counters are batching-invariant.
        assert batch_store.stats.reads == seq_store.stats.reads
        assert batch_store.stats.writes == seq_store.stats.writes
        assert batch_store.stats.local_reads == seq_store.stats.local_reads
        assert batch_store.stats.remote_reads == seq_store.stats.remote_reads

    def test_contacts_collapse_per_batch(self):
        """One batch contacts each coordinator→replica pair at most once, so
        remote contacts are bounded by the peer count — not the key count."""
        fps = _fingerprints(200, pool=200, seed=2)
        store = DistributedKVStore(NODES)
        store.put_if_absent_many(fps, "v", coordinator="edge-0")
        assert store.stats.batch_rounds == 1
        assert store.stats.remote_contacts <= len(NODES) - 1
        assert all(count == 1 for count in store.stats.per_pair_contacts.values())

        sequential = DistributedKVStore(NODES)
        for fp in fps:
            sequential.put_if_absent_many([fp], "v", coordinator="edge-0")
        assert sequential.stats.remote_contacts > store.stats.remote_contacts

    def test_batch_rounds_count_calls(self):
        store = DistributedKVStore(NODES)
        fps = _fingerprints(100, pool=50, seed=3)
        for lo in range(0, 100, 25):
            store.put_if_absent_many(fps[lo : lo + 25], "v", coordinator="edge-1")
        assert store.stats.batch_rounds == 4

    def test_consistency_level_respected(self):
        store = DistributedKVStore(NODES, replication_factor=3)
        got = store.put_if_absent_many(
            ["x", "y", "x"], "v", consistency=ConsistencyLevel.QUORUM, coordinator="edge-2"
        )
        assert got == [True, True, False]


class TestRingIndexBatching:
    def test_locality_counters_are_per_key(self):
        fps = _fingerprints(400, pool=150, seed=4)
        looped_index = RingIndex(DistributedKVStore(NODES), local_node="edge-3")
        batched_index = RingIndex(DistributedKVStore(NODES), local_node="edge-3")
        for fp in fps:
            looped_index.lookup_and_insert_many([fp])
        for lo in range(0, len(fps), 64):
            batched_index.lookup_and_insert_many(fps[lo : lo + 64])
        assert batched_index.lookups.local == looped_index.lookups.local
        assert batched_index.lookups.remote == looped_index.lookups.remote
        assert batched_index.lookups.total_lookups == len(fps)
        assert batched_index.lookups.batch_rounds == math.ceil(len(fps) / 64)
        assert looped_index.lookups.batch_rounds == len(fps)

    def test_a_batch_that_raises_is_still_counted(self):
        """Locality is tallied as the keys are placed, before routing: a
        batch refused as unavailable counts its keys, as it always has."""
        from repro.kvstore.errors import UnavailableError

        store = DistributedKVStore(NODES)
        index = RingIndex(store, local_node="edge-0", consistency=ConsistencyLevel.ALL)
        store.mark_down("edge-1")
        fps = _fingerprints(64, pool=40, seed=9)
        with pytest.raises(UnavailableError):
            index.lookup_and_insert_many(fps)
        local = sum(1 for fp in fps if "edge-0" in store.replicas_for(fp))
        assert (index.lookups.local, index.lookups.remote) == (local, len(fps) - local)
        assert index.lookups.batch_rounds == 1
        assert store.stats.reads == 0  # refused before any replica was read


class TestEngineBatching:
    def _payload(self, seed: int = 5) -> bytes:
        rng = np.random.default_rng(seed)
        # 64 chunks drawn from 8 distinct 4 KiB blocks: plenty of duplicates.
        blocks = [rng.integers(0, 4, size=4096, dtype=np.uint8).tobytes() for _ in range(8)]
        return b"".join(blocks[i] for i in rng.integers(0, len(blocks), size=64))

    def test_batched_matches_unbatched(self):
        data = self._payload()
        results = {}
        for batch_size in (1, 7, 64, 1000):
            engine = DedupEngine(chunker=FixedSizeChunker(4096), batch_size=batch_size)
            result = engine.dedup_bytes(data, source="s")
            results[batch_size] = (
                result.unique_fingerprints,
                result.stats.raw_chunks,
                result.stats.unique_chunks,
                result.stats.raw_bytes,
                result.stats.unique_bytes,
            )
        assert len(set(results.values())) == 1

    def test_batched_stream_matches_bytes(self):
        data = self._payload(seed=6)
        blocks = [data[i : i + 10_000] for i in range(0, len(data), 10_000)]
        byte_engine = DedupEngine(chunker=FixedSizeChunker(4096), batch_size=16)
        stream_engine = DedupEngine(chunker=FixedSizeChunker(4096), batch_size=16)
        a = byte_engine.dedup_bytes(data)
        b = stream_engine.dedup_stream(iter(blocks))
        assert a.unique_fingerprints == b.unique_fingerprints
        assert a.stats.raw_chunks == b.stats.raw_chunks

    def test_unique_sink_sees_every_unique_chunk_once(self):
        data = self._payload(seed=7)
        seen: list[str] = []
        engine = DedupEngine(
            chunker=FixedSizeChunker(4096),
            batch_size=16,
            unique_sink=lambda batch: seen.extend(fp for _, fp in batch),
        )
        result = engine.dedup_bytes(data)
        assert seen == list(result.unique_fingerprints)

    def test_ring_round_trips_bounded(self):
        """The acceptance bound: a batched engine issues at most
        ceil(chunks / batch_size) index round trips per source."""
        data = self._payload(seed=8)
        for batch_size in (1, 16, 80):
            index = RingIndex(DistributedKVStore(NODES), local_node="edge-0")
            engine = DedupEngine(
                index=index, chunker=FixedSizeChunker(4096), batch_size=batch_size
            )
            engine.dedup_bytes(data)
            chunks = engine.stats.raw_chunks
            assert index.lookups.batch_rounds == math.ceil(chunks / batch_size)
            assert index.store.stats.batch_rounds == index.lookups.batch_rounds

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            DedupEngine(batch_size=0)


class TestUniqueSinkIsPerLookupBatch:
    """The sink is called once per lookup batch that has unique chunks, with
    those chunks in stream order as ``(bytes chunk, fingerprint)`` pairs."""

    BLOCK = 4096

    def _blocks(self, seed: int, n: int) -> list[bytes]:
        rng = np.random.default_rng(seed)
        return [rng.integers(0, 256, self.BLOCK, dtype=np.uint8).tobytes() for _ in range(n)]

    def _sunk(self, data: bytes, **engine_kwargs):
        calls: list[list] = []
        engine = DedupEngine(
            chunker=FixedSizeChunker(self.BLOCK), unique_sink=calls.append, **engine_kwargs
        )
        return calls, engine.dedup_bytes(memoryview(data))

    def test_one_call_per_batch_in_stream_order_unique_only(self):
        first, third = self._blocks(1, 16), self._blocks(2, 16)
        # batch 0: 16 new; batch 1: all duplicates of batch 0; batch 2: 14
        # new with a repeat inside the batch and one of batch 0's chunks.
        stream = first + first + third[:14] + [third[0], first[5]]
        calls, result = self._sunk(b"".join(stream), batch_size=16)
        assert [len(call) for call in calls] == [16, 14]  # none for batch 1
        assert [c.offset // (16 * self.BLOCK) for c, _ in calls[0]] == [0] * 16
        assert [c.offset // (16 * self.BLOCK) for c, _ in calls[1]] == [2] * 14
        flat = [pair for call in calls for pair in call]
        assert [fp for _, fp in flat] == list(result.unique_fingerprints)
        assert [c.data for c, _ in flat] == first + third[:14]
        assert all(type(c.data) is bytes for c, _ in flat)

    def test_an_all_duplicate_input_makes_no_call(self):
        data = b"".join(self._blocks(3, 8))
        engine = DedupEngine(chunker=FixedSizeChunker(self.BLOCK), batch_size=4)
        engine.dedup_bytes(data)
        calls: list[list] = []
        engine.unique_sink = calls.append
        engine.dedup_bytes(data)
        assert calls == []

    def test_batch_size_one_sinks_the_same_sequence(self):
        blocks = self._blocks(4, 12)
        data = b"".join(blocks + blocks[3:9] + self._blocks(5, 5))

        def flat(calls):
            return [(c.data, c.offset, fp) for call in calls for c, fp in call]

        batched, _ = self._sunk(data, batch_size=8)
        single, _ = self._sunk(data, batch_size=1)
        assert all(len(call) == 1 for call in single)  # a batch of one chunk
        assert flat(single) == flat(batched)
