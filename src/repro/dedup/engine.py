"""Deduplication engine: the split → hash → lookup → store-if-unique pipeline.

This is the library's replacement for duperemove. It is deployment-agnostic:
the same engine runs against an in-memory index (single node), the
distributed KV index of a D2-ring, or a remote cloud index — the deployment
strategies in :mod:`repro.system.strategies` only differ in the index they
hand to it and in the latency charged per lookup.

The hot path is zero-copy: chunkers yield ``memoryview`` slices of the
caller's buffer (:meth:`~repro.chunking.base.Chunker.chunk_views`), the
fingerprint hashes the view directly (hashlib accepts any buffer), and chunk
payloads are only materialized as ``bytes`` for *unique* chunks handed to
the ``unique_sink``. Streams are chunked incrementally with a carry bounded
by the chunker's ``max_size`` instead of being joined into one buffer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from repro.chunking.base import Chunk, Chunker
from repro.chunking.fixed import FixedSizeChunker
from repro.chunking.hashing import Fingerprinter, default_fingerprint
from repro.dedup.index import DedupIndex, InMemoryIndex
from repro.dedup.stats import DedupStats
from repro.obs.histogram import Histogram

# Called once per lookup batch with the batch's unique chunks as
# (chunk, fingerprint) pairs in stream order, after the batch's accounting —
# e.g. to upload them to the central cloud. A batch with no unique chunk
# makes no call. Payloads are materialized ``bytes`` (sinks may store them).
# A sink may return the pairs its store already held (false uniques, e.g.
# verdicts written through a brownout); the engine then counts them as
# duplicates in its cumulative stats. ``None`` means none.
UniqueChunkSink = Callable[[list[tuple[Chunk, str]]], Optional[list[tuple[Chunk, str]]]]

# Called once per lookup batch with (fingerprints, chunks), in stream order,
# *before* the batch's index round trip — so before any of its chunks can
# reach the unique sink. The chunks may be views of the caller's buffer,
# and both lists are reused for the next batch: copy what must be kept.
BatchObserver = Callable[[list[str], list[Chunk]], None]

# Fingerprints accumulated before one batched index round trip. Against an
# in-memory index batching only changes call granularity; against a remote
# (ring or cloud) index it amortizes the round trip over the whole batch.
DEFAULT_BATCH_SIZE = 64


@dataclass(frozen=True)
class DedupResult:
    """Outcome of deduplicating one input (file or stream)."""

    stats: DedupStats
    unique_fingerprints: tuple[str, ...]

    @property
    def dedup_ratio(self) -> float:
        return self.stats.dedup_ratio


class DedupEngine:
    """Deduplicates byte streams against a pluggable index.

    Args:
        index: where fingerprints are looked up / stored. Defaults to a fresh
            in-memory index.
        chunker: how streams are split. Defaults to duperemove-style 128 KiB
            fixed-size chunks. Chunkers flagged
            :attr:`~repro.chunking.base.Chunker.oracle_only` (the scalar
            Rabin reference) are rejected unless ``allow_oracle_chunkers``
            is set — a misconfigured deployment must not silently ingest at
            oracle speed.
        fingerprint: chunk fingerprint function (receives ``bytes`` or
            ``memoryview`` payloads).
        unique_sink: optional callback invoked once per lookup batch with
            its unique chunks (used by agents to forward unique data to the
            central cloud); see :data:`UniqueChunkSink`.
        batch_size: chunks per :meth:`DedupIndex.lookup_and_insert_many`
            call. ``1`` claims each chunk as a batch of one (duperemove's
            serial per-block queries); the verdicts are identical at any
            size, only the index call granularity (and, for remote
            indexes, the round-trip count) changes.
        allow_oracle_chunkers: accept ``oracle_only`` chunkers (analysis /
            test use only).
    """

    def __init__(
        self,
        index: Optional[DedupIndex] = None,
        chunker: Optional[Chunker] = None,
        fingerprint: Fingerprinter = default_fingerprint,
        unique_sink: Optional[UniqueChunkSink] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        allow_oracle_chunkers: bool = False,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        self.index = index if index is not None else InMemoryIndex()
        self.chunker = chunker if chunker is not None else FixedSizeChunker()
        if self.chunker.oracle_only and not allow_oracle_chunkers:
            raise ValueError(
                f"{type(self.chunker).__name__} is a reference oracle too slow "
                "for live ingest; pick a production chunker (gear, fastcdc, ae, "
                "ram, fixed) or pass allow_oracle_chunkers=True for offline use"
            )
        self.fingerprint = fingerprint
        self.unique_sink = unique_sink
        self.batch_size = batch_size
        self.stats = DedupStats()
        # Wall time of index lookup rounds (one observation per batch).
        self.lookup_latency = Histogram("engine.lookup_s")

    def dedup_bytes(
        self,
        data: "bytes | memoryview",
        source: Optional[str] = None,
        observer: Optional[BatchObserver] = None,
    ) -> DedupResult:
        """Deduplicate a complete in-memory input.

        Args:
            data: the raw input bytes (any contiguous buffer; never copied).
            source: optional label stored as metadata with new fingerprints.
            observer: sees every lookup batch's fingerprints and chunks
                before the index does — how a caller builds the file's
                recipe and takes its refcounts from the pass that dedups,
                instead of chunking and hashing the input a second time.

        Returns:
            Per-call result; cumulative accounting is on :attr:`stats`.
        """
        return self._run(self.chunker.chunk_views(data), source, observer)

    def dedup_stream(
        self, blocks: Iterable["bytes | memoryview"], source: Optional[str] = None
    ) -> DedupResult:
        """Deduplicate an input supplied as an iterable of byte blocks.

        Blocks may be ``bytes`` or ``memoryview``; they are chunked
        incrementally (carry bounded by the chunker's ``max_size``) and
        never copied per chunk. Mutable blocks (e.g. a reused ``bytearray``)
        must not be modified until the call returns.
        """
        return self._run(self.chunker.stream_views(blocks), source)

    # The single chunk → fingerprint → lookup pipeline behind both entry
    # points.

    def _run(
        self,
        chunks: Iterator[Chunk],
        source: Optional[str],
        observer: Optional[BatchObserver] = None,
    ) -> DedupResult:
        call_stats = DedupStats()
        unique: list[str] = []
        pending: list[Chunk] = []
        fps: list[str] = []
        for chunk in chunks:
            pending.append(chunk)
            fps.append(self.fingerprint(chunk.data))
            if len(pending) >= self.batch_size:
                self._flush(pending, fps, source, call_stats, unique, observer)
                pending.clear()
                fps.clear()
        if pending:
            self._flush(pending, fps, source, call_stats, unique, observer)
        return DedupResult(stats=call_stats, unique_fingerprints=tuple(unique))

    def _flush(
        self,
        pending: list[Chunk],
        fps: list[str],
        source: Optional[str],
        call_stats: DedupStats,
        unique: list[str],
        observer: Optional[BatchObserver],
    ) -> None:
        """Claim one lookup batch, record it, then hand its unique chunks
        to the sink."""
        if observer is not None:
            observer(fps, pending)
        started = time.perf_counter()
        verdicts = self.index.lookup_and_insert_many(fps, metadata=source)
        self.lookup_latency.observe(time.perf_counter() - started)
        new = [(chunk, fp) for chunk, fp, is_new in zip(pending, fps, verdicts) if is_new]
        unique.extend(fp for _, fp in new)
        totals = (len(pending), sum(c.length for c in pending), len(new), sum(c.length for c, _ in new))
        call_stats.record_batch(*totals)
        self.stats.record_batch(*totals)
        if new and self.unique_sink is not None:
            # Unique chunks are the cold path: materialize bytes here so
            # sinks can store the payload without pinning the input buffer
            # through a view.
            held = self.unique_sink(
                [
                    (c if isinstance(c.data, bytes) else Chunk(c.tobytes(), c.offset), fp)
                    for c, fp in new
                ]
            )
            if held:
                # Move the false uniques over: no chunk or byte is added,
                # len(held) unique chunks become duplicates.
                self.stats.record_batch(0, 0, -len(held), -sum(c.length for c, _ in held))

    def reset_stats(self) -> None:
        """Zero the cumulative stats without touching the index."""
        self.stats = DedupStats()


def measure_dedup_ratio(
    inputs: Iterable[bytes],
    chunker: Optional[Chunker] = None,
    fingerprint: Fingerprinter = default_fingerprint,
) -> float:
    """Ground-truth dedup ratio of a set of inputs deduplicated together.

    This is the "real-dedup-ratio" measurement in the paper's Algorithm 1:
    all inputs share one fresh index, and the ratio is raw/unique bytes.
    """
    engine = DedupEngine(
        chunker=chunker,
        fingerprint=fingerprint,
        allow_oracle_chunkers=True,
    )
    for data in inputs:
        engine.dedup_bytes(data)
    return engine.stats.dedup_ratio
