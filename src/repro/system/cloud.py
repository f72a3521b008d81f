"""The central cloud.

Two roles, mirroring the paper's comparison points:

- :class:`CentralCloudStore` — the durable chunk store every strategy
  ultimately writes to. Counts arrived bytes/chunks; re-sending a chunk
  that's already stored still costs WAN bytes (the sender didn't know),
  which is exactly the waste EF-dedup eliminates.
- :class:`CloudDedupService` — a cloud-side dedup index for the Cloud-only
  strategy (cloud dedups raw uploads on arrival) and the Cloud-assisted
  strategy (edges query this index over the WAN before uploading).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.chunking.base import Chunk
from repro.dedup.index import InMemoryIndex
from repro.dedup.stats import DedupStats


class CentralCloudStore:
    """Durable chunk storage in the central cloud, by accounting only: it
    keeps each chunk's size, not its bytes (restores read through a
    :class:`~repro.content.plane.ContentPlane`)."""

    def __init__(self) -> None:
        self._chunks: dict[str, int] = {}  # fingerprint -> chunk size
        self.received_bytes = 0
        self.received_chunks = 0
        self.redundant_bytes = 0

    def receive_chunk(self, chunk: Chunk, fingerprint: str) -> bool:
        """Accept an uploaded chunk. Returns True if it was new to the cloud.

        Duplicate arrivals are counted as redundant WAN traffic — they
        consumed uplink bandwidth for nothing.
        """
        self.received_bytes += chunk.length
        self.received_chunks += 1
        if fingerprint in self._chunks:
            self.redundant_bytes += chunk.length
            return False
        self._chunks[fingerprint] = chunk.length
        return True

    def receive_chunks(self, batch: Iterable[tuple[Chunk, str]]) -> None:
        """Accept a lookup batch's unique chunks, one upload each — the
        accounting-only :data:`~repro.dedup.engine.UniqueChunkSink`."""
        for chunk, fingerprint in batch:
            self.receive_chunk(chunk, fingerprint)

    @property
    def stored_chunks(self) -> int:
        return len(self._chunks)

    @property
    def stored_bytes(self) -> int:
        return sum(self._chunks.values())

    def has_chunk(self, fingerprint: str) -> bool:
        return fingerprint in self._chunks

    def fingerprints(self) -> frozenset[str]:
        """The set of stored chunk fingerprints (the chaos invariant
        checker compares this against the ring index's key set)."""
        return frozenset(self._chunks)

    def drop_chunk(self, fingerprint: str) -> bool:
        """Remove a chunk from storage (the GC reclaim path). Historical
        WAN counters (``received_*``/``redundant_bytes``) are untouched —
        the traffic happened — but ``stored_chunks``/``stored_bytes`` and
        :meth:`fingerprints` reflect the deletion, keeping the chaos
        invariant *index keys == cloud fingerprints* true across sweeps."""
        return self._chunks.pop(fingerprint, None) is not None


class CloudDedupService:
    """Cloud-side dedup index + store, for the cloud-based baselines."""

    def __init__(self, store: Optional[CentralCloudStore] = None) -> None:
        self.store = store if store is not None else CentralCloudStore()
        self.index = InMemoryIndex()
        self.stats = DedupStats()
        self.lookups_served = 0

    def lookup(self, fingerprint: str) -> bool:
        """Remote hash lookup (Cloud-assisted fast path). True if present."""
        self.lookups_served += 1
        return self.index.contains(fingerprint)

    def ingest_raw_chunk(self, chunk: Chunk, fingerprint: str) -> bool:
        """Cloud-only path: raw chunk arrives, cloud dedups it on arrival.

        Returns True if the chunk was unique (kept).
        """
        [is_new] = self.index.lookup_and_insert_many([fingerprint])
        self.stats.record_chunk(chunk.length, is_new)
        if is_new:
            self.store.receive_chunk(chunk, fingerprint)
        else:
            # Raw duplicate still crossed the WAN before being discarded.
            self.store.received_bytes += chunk.length
            self.store.received_chunks += 1
            self.store.redundant_bytes += chunk.length
        return is_new

    def ingest_unique_chunk(self, chunk: Chunk, fingerprint: str) -> bool:
        """Cloud-assisted path: edge already checked; register and store.

        Returns True if the chunk was actually new (False indicates a race
        or stale edge view — the chunk is dropped, bytes were still spent).
        """
        [is_new] = self.index.lookup_and_insert_many([fingerprint])
        self.stats.record_chunk(chunk.length, is_new)
        self.store.receive_chunk(chunk, fingerprint)
        return is_new
