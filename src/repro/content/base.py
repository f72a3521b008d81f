"""Content-store protocol: where chunk *payloads* actually live.

The rest of the system moves fingerprints; this package moves bytes. A
:class:`ContentStore` is anything that can hold chunk payloads addressed
by fingerprint — the in-memory reference store here, the ring-local edge
store (:mod:`repro.content.ring_store`), or the erasure-coded cloud tier
(:class:`~repro.erasure.striped_store.ErasureCodedChunkStore`, which
satisfies the protocol directly).

Contract, shared with :func:`repro.dedup.recipes.restore_file`:

- ``put_chunk`` is idempotent per fingerprint and returns True only when
  the payload was new;
- ``get_chunk`` raises ``KeyError`` for an unknown fingerprint (the
  recipe restore path turns that into a typed ``RecipeError``);
- ``delete_chunk`` returns whether anything was stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable


@runtime_checkable
class ContentStore(Protocol):
    """Minimal payload-by-fingerprint storage surface."""

    def put_chunk(self, fingerprint: str, data: bytes) -> bool: ...

    def get_chunk(self, fingerprint: str) -> bytes: ...

    def delete_chunk(self, fingerprint: str) -> bool: ...

    def has_chunk(self, fingerprint: str) -> bool: ...

    def fingerprints(self) -> frozenset[str]: ...


@dataclass
class ContentStats:
    """Flat counters for one content store (exported as ``content.*``)."""

    puts: int = 0
    put_bytes: int = 0
    dup_puts: int = 0
    dropped_puts: int = 0  # no reachable target at flush time
    gets: int = 0
    hits: int = 0
    misses: int = 0
    deletes: int = 0
    deleted_bytes: int = 0
    batch_flushes: int = 0  # put_chunks messages sent
    rehomed_chunks: int = 0


@dataclass
class InMemoryContentStore:
    """Reference :class:`ContentStore`: a dict with exact accounting.

    Used directly in tests and as the simplest tier for single-process
    experiments; the protocol's semantics are defined by this class.
    """

    _chunks: dict[str, bytes] = field(default_factory=dict)
    stats: ContentStats = field(default_factory=ContentStats)

    def put_chunk(self, fingerprint: str, data: bytes) -> bool:
        if fingerprint in self._chunks:
            self.stats.dup_puts += 1
            return False
        self._chunks[fingerprint] = bytes(data)
        self.stats.puts += 1
        self.stats.put_bytes += len(data)
        return True

    def get_chunk(self, fingerprint: str) -> bytes:
        self.stats.gets += 1
        try:
            data = self._chunks[fingerprint]
        except KeyError:
            self.stats.misses += 1
            raise
        self.stats.hits += 1
        return data

    def delete_chunk(self, fingerprint: str) -> bool:
        data = self._chunks.pop(fingerprint, None)
        if data is None:
            return False
        self.stats.deletes += 1
        self.stats.deleted_bytes += len(data)
        return True

    def has_chunk(self, fingerprint: str) -> bool:
        return fingerprint in self._chunks

    def fingerprints(self) -> frozenset[str]:
        return frozenset(self._chunks)

    @property
    def payload_bytes(self) -> int:
        return sum(len(d) for d in self._chunks.values())
