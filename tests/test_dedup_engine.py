"""Tests for the dedup engine, index, and stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking.fixed import FixedSizeChunker
from repro.dedup.engine import DedupEngine, measure_dedup_ratio
from repro.dedup.index import InMemoryIndex
from repro.dedup.stats import DedupStats


class TestInMemoryIndex:
    def test_insert_new_returns_true(self):
        idx = InMemoryIndex()
        assert idx.lookup_and_insert_many(["fp1"]) == [True]

    def test_insert_duplicate_returns_false(self):
        idx = InMemoryIndex()
        idx.lookup_and_insert_many(["fp1"])
        assert idx.lookup_and_insert_many(["fp1"]) == [False]

    def test_contains(self):
        idx = InMemoryIndex()
        assert not idx.contains("fp")
        idx.lookup_and_insert_many(["fp"])
        assert idx.contains("fp")

    def test_lookup_and_insert_semantics(self):
        idx = InMemoryIndex()
        assert idx.lookup_and_insert_many(["fp", "fp"]) == [True, False]
        assert idx.lookup_and_insert_many(["fp"]) == [False]

    def test_metadata_stored_on_first_insert(self):
        idx = InMemoryIndex()
        idx.lookup_and_insert_many(["fp"], metadata="node-1")
        idx.lookup_and_insert_many(["fp"], metadata="node-2")  # duplicate: ignored
        assert idx.get_metadata("fp") == "node-1"

    def test_len_counts_unique(self):
        idx = InMemoryIndex()
        idx.lookup_and_insert_many(["a", "b", "a"])
        assert len(idx) == 2

    def test_fingerprints_iteration(self):
        idx = InMemoryIndex()
        idx.lookup_and_insert_many(["a", "b", "c"])
        assert set(idx.fingerprints()) == {"a", "b", "c"}

    def test_clear(self):
        idx = InMemoryIndex()
        idx.lookup_and_insert_many(["a"])
        idx.clear()
        assert len(idx) == 0


class TestDedupStats:
    def test_record_unique_chunk(self):
        s = DedupStats()
        s.record_chunk(100, is_unique=True)
        assert s.raw_bytes == 100
        assert s.unique_bytes == 100
        assert s.duplicate_chunks == 0

    def test_record_duplicate_chunk(self):
        s = DedupStats()
        s.record_chunk(100, True)
        s.record_chunk(100, False)
        assert s.raw_bytes == 200
        assert s.unique_bytes == 100
        assert s.duplicate_chunks == 1

    def test_dedup_ratio(self):
        s = DedupStats()
        s.record_chunk(100, True)
        s.record_chunk(100, False)
        s.record_chunk(100, False)
        assert s.dedup_ratio == pytest.approx(3.0)

    def test_empty_ratio_is_one(self):
        assert DedupStats().dedup_ratio == 1.0

    def test_all_duplicate_ratio_is_inf(self):
        """Legitimate after live migration seeds a ring's index with a
        carried shard: every chunk the ring ever sees can be a duplicate."""
        s = DedupStats()
        s.record_chunk(100, False)
        assert s.dedup_ratio == float("inf")
        assert s.as_dict()["dedup_ratio"] == float("inf")

    def test_space_savings(self):
        s = DedupStats()
        s.record_chunk(100, True)
        s.record_chunk(100, False)
        assert s.space_savings == pytest.approx(0.5)

    def test_duplicate_fraction(self):
        s = DedupStats()
        s.record_chunk(10, True)
        s.record_chunk(10, False)
        assert s.duplicate_fraction == pytest.approx(0.5)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DedupStats().record_chunk(-1, True)

    def test_merge_is_additive(self):
        a, b = DedupStats(), DedupStats()
        a.record_chunk(10, True)
        b.record_chunk(10, False)
        merged = a.merge(b)
        assert merged.raw_bytes == 20
        assert merged.unique_bytes == 10
        assert merged.duplicate_chunks == 1

    def test_as_dict_keys(self):
        s = DedupStats()
        s.record_chunk(5, True)
        d = s.as_dict()
        assert d["dedup_ratio"] == 1.0
        assert d["raw_chunks"] == 1.0


class TestDedupEngine:
    def test_identical_inputs_dedupe_fully(self):
        engine = DedupEngine(chunker=FixedSizeChunker(4))
        data = b"abcdabcd" * 16
        engine.dedup_bytes(data)
        result = engine.dedup_bytes(data)
        assert result.stats.unique_bytes == 0
        assert result.stats.duplicate_chunks == result.stats.raw_chunks

    def test_unique_input_does_not_dedupe(self):
        engine = DedupEngine(chunker=FixedSizeChunker(4))
        result = engine.dedup_bytes(bytes(range(256)))
        assert result.stats.unique_chunks == result.stats.raw_chunks

    def test_repeated_chunks_within_one_input(self):
        engine = DedupEngine(chunker=FixedSizeChunker(4))
        result = engine.dedup_bytes(b"aaaabbbbaaaa")
        assert result.stats.raw_chunks == 3
        assert result.stats.unique_chunks == 2

    def test_unique_sink_called_only_for_unique(self):
        seen = []
        engine = DedupEngine(
            chunker=FixedSizeChunker(4),
            unique_sink=lambda batch: seen.extend(fp for _, fp in batch),
        )
        engine.dedup_bytes(b"aaaabbbbaaaa")
        assert len(seen) == 2

    def test_unique_fingerprints_in_result(self):
        engine = DedupEngine(chunker=FixedSizeChunker(4))
        result = engine.dedup_bytes(b"aaaabbbb")
        assert len(result.unique_fingerprints) == 2

    def test_cumulative_stats_span_calls(self):
        engine = DedupEngine(chunker=FixedSizeChunker(4))
        engine.dedup_bytes(b"aaaa")
        engine.dedup_bytes(b"aaaa")
        assert engine.stats.raw_chunks == 2
        assert engine.stats.unique_chunks == 1

    def test_reset_stats_keeps_index(self):
        engine = DedupEngine(chunker=FixedSizeChunker(4))
        engine.dedup_bytes(b"aaaa")
        engine.reset_stats()
        assert engine.stats.raw_chunks == 0
        result = engine.dedup_bytes(b"aaaa")
        assert result.stats.duplicate_chunks == 1  # index remembered

    def test_dedup_stream(self):
        engine = DedupEngine(chunker=FixedSizeChunker(4))
        result = engine.dedup_stream([b"aaaa", b"bbbb", b"aaaa"])
        assert result.stats.raw_chunks == 3
        assert result.stats.unique_chunks == 2

    def test_metadata_records_source(self):
        idx = InMemoryIndex()
        engine = DedupEngine(index=idx, chunker=FixedSizeChunker(4))
        result = engine.dedup_bytes(b"aaaa", source="edge-7")
        assert idx.get_metadata(result.unique_fingerprints[0]) == "edge-7"

    def test_result_dedup_ratio_property(self):
        engine = DedupEngine(chunker=FixedSizeChunker(4))
        result = engine.dedup_bytes(b"aaaaaaaa")
        assert result.dedup_ratio == pytest.approx(2.0)


class TestMeasureDedupRatio:
    def test_disjoint_inputs(self):
        ratio = measure_dedup_ratio(
            [bytes([i]) * 8 for i in range(4)], chunker=FixedSizeChunker(4)
        )
        assert ratio == pytest.approx(2.0)  # each input self-duplicates once

    def test_identical_inputs(self):
        ratio = measure_dedup_ratio([b"abcd" * 4] * 4, chunker=FixedSizeChunker(4))
        assert ratio == pytest.approx(16.0)

    @given(st.lists(st.binary(min_size=1, max_size=200), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_ratio_at_least_one(self, inputs):
        assert measure_dedup_ratio(inputs, chunker=FixedSizeChunker(16)) >= 1.0

    @given(st.binary(min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_duplicating_the_input_doubles_ratio(self, data):
        single = measure_dedup_ratio([data], chunker=FixedSizeChunker(16))
        double = measure_dedup_ratio([data, data], chunker=FixedSizeChunker(16))
        assert double == pytest.approx(2 * single)
