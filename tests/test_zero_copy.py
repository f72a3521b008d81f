"""Regression tests for the zero-copy ingest pipeline.

The dedup hot path must not copy chunk payloads: chunkers hand out
``memoryview`` slices of the caller's buffer, the fingerprint hashes the
view directly, and streams are chunked incrementally with a carry bounded by
``max_size`` (the old ``chunk_stream`` joined the entire stream into one
buffer and then copied every chunk out of it).
"""

import numpy as np
import pytest

from repro.chunking import (
    Chunk,
    FastCDCChunker,
    FixedSizeChunker,
    GearChunker,
    RabinChunker,
)
from repro.dedup.engine import DedupEngine
from repro.dedup.index import InMemoryIndex


def _random_bytes(n: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


CHUNKERS = [
    pytest.param(lambda: FixedSizeChunker(4096), id="fixed"),
    pytest.param(lambda: GearChunker(avg_size=4096), id="gear"),
    pytest.param(lambda: FastCDCChunker(avg_size=4096), id="fastcdc"),
]


@pytest.mark.parametrize("make", CHUNKERS)
class TestChunkViews:
    def test_views_alias_the_input(self, make):
        data = _random_bytes(50_000)
        chunks = list(make().chunk_views(data))
        assert all(isinstance(c.data, memoryview) for c in chunks)
        # Each view is backed by the caller's buffer, not a copy.
        assert all(c.data.obj is data for c in chunks)
        assert b"".join(c.data for c in chunks) == data

    def test_views_accept_memoryview_input(self, make):
        data = _random_bytes(20_000, seed=1)
        view_chunks = [(c.offset, c.tobytes()) for c in make().chunk_views(memoryview(data))]
        byte_chunks = [(c.offset, c.tobytes()) for c in make().chunk_views(data)]
        assert view_chunks == byte_chunks

    def test_chunk_still_returns_bytes(self, make):
        data = _random_bytes(10_000, seed=2)
        chunks = list(make().chunk(data))
        assert all(isinstance(c.data, bytes) for c in chunks)
        assert b"".join(c.data for c in chunks) == data


@pytest.mark.parametrize("make", CHUNKERS)
class TestStreamViews:
    def test_blocks_never_joined_into_one_buffer(self, make):
        """The old bug: ``chunk_stream`` buffered the whole stream. Now every
        yielded view must be backed by a single block plus at most one
        carried tail (< max_size), never the concatenated stream."""
        chunker = make()
        block = 16_384
        blocks = [_random_bytes(block, seed=s) for s in range(8)]
        total = sum(map(len, blocks))
        for c in chunker.stream_views(iter(blocks)):
            assert len(c.data.obj) <= block + chunker.max_size
            assert len(c.data.obj) < total
        # And the boundaries equal the contiguous-buffer ones.
        joined = b"".join(blocks)
        streamed = [(c.offset, c.length) for c in chunker.stream_views(iter(blocks))]
        direct = [(c.offset, c.length) for c in chunker.chunk_views(joined)]
        assert streamed == direct

    def test_memoryview_blocks_are_sliced_without_copy(self, make):
        data = _random_bytes(60_000, seed=3)
        blocks = [memoryview(data)[i : i + 13_000] for i in range(0, len(data), 13_000)]
        chunker = make()
        out = list(chunker.stream_views(iter(blocks)))
        assert b"".join(c.tobytes() for c in out) == data
        # A block consumed with no pending carry is chunked in place.
        assert any(isinstance(c.data, memoryview) and c.data.obj is data for c in out)

    def test_empty_blocks_are_skipped(self, make):
        blocks = [b"", _random_bytes(5000, seed=4), b"", _random_bytes(3000, seed=5), b""]
        chunker = make()
        streamed = b"".join(c.tobytes() for c in chunker.chunk_stream(iter(blocks)))
        assert streamed == b"".join(blocks)


class TestEngineZeroCopy:
    def test_fingerprint_receives_views_not_copies(self):
        """No per-chunk ``bytes`` allocation on the hot path: the payloads
        reaching the fingerprinter are views into the input buffer."""
        data = _random_bytes(100_000, seed=6)
        seen: list[object] = []

        def spy_fingerprint(payload):
            seen.append(payload)
            from repro.chunking.hashing import default_fingerprint

            return default_fingerprint(payload)

        engine = DedupEngine(chunker=FastCDCChunker(avg_size=4096), fingerprint=spy_fingerprint)
        engine.dedup_bytes(data)
        assert seen
        assert all(isinstance(p, memoryview) for p in seen)
        assert all(p.obj is data for p in seen)

    def test_dedup_stream_accepts_memoryview_blocks(self):
        data = _random_bytes(80_000, seed=7)
        blocks = [memoryview(data)[i : i + 9000] for i in range(0, len(data), 9000)]
        engine = DedupEngine(chunker=FastCDCChunker(avg_size=4096))
        result = engine.dedup_stream(iter(blocks))
        baseline = DedupEngine(chunker=FastCDCChunker(avg_size=4096)).dedup_bytes(data)
        assert result.unique_fingerprints == baseline.unique_fingerprints
        assert result.stats.raw_bytes == baseline.stats.raw_bytes

    def test_stream_and_bytes_dedup_identically(self):
        data = _random_bytes(120_000, seed=8)
        for batch in (1, 64):
            a = DedupEngine(chunker=GearChunker(avg_size=4096), batch_size=batch)
            b = DedupEngine(chunker=GearChunker(avg_size=4096), batch_size=batch)
            ra = a.dedup_bytes(data)
            rb = b.dedup_stream(iter([data[i : i + 10_000] for i in range(0, len(data), 10_000)]))
            assert ra.unique_fingerprints == rb.unique_fingerprints
            assert ra.stats.dedup_ratio == rb.stats.dedup_ratio

    def test_unique_sink_receives_bytes_payloads(self):
        """Sinks may store the payload, so unique chunks (the cold path) are
        materialized; duplicates never are."""
        data = _random_bytes(40_960, seed=9)  # 10 aligned 4 KiB chunks
        sunk: list[Chunk] = []
        engine = DedupEngine(
            chunker=FixedSizeChunker(4096),
            unique_sink=lambda batch: sunk.extend(c for c, _ in batch),
        )
        engine.dedup_bytes(data + data)  # second half is all duplicates
        assert len(sunk) == 10
        assert all(isinstance(c.data, bytes) for c in sunk)
        assert b"".join(c.data for c in sunk) == data

    def test_oracle_chunker_rejected_for_live_ingest(self):
        with pytest.raises(ValueError, match="oracle"):
            DedupEngine(chunker=RabinChunker(avg_size=256))

    def test_oracle_chunker_allowed_when_explicit(self):
        engine = DedupEngine(
            index=InMemoryIndex(),
            chunker=RabinChunker(avg_size=256),
            allow_oracle_chunkers=True,
        )
        result = engine.dedup_bytes(_random_bytes(5000, seed=11))
        assert result.stats.raw_bytes == 5000

    def test_pad_last_still_pads_through_views(self):
        engine = DedupEngine(chunker=FixedSizeChunker(4096, pad_last=True))
        result = engine.dedup_bytes(_random_bytes(10_000, seed=12))
        assert result.stats.raw_bytes == 3 * 4096
