"""Deduplication index abstraction.

The index answers one question: "has this fingerprint been seen before, and
if not, remember it". EF-dedup's key design decision is *where* this index
lives — in-memory on one node, in the central cloud, or spread across a
D2-ring in a distributed KV store — so the engine is written against this
small interface and the deployment strategies plug in different backends.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Optional


class DedupIndex(ABC):
    """Set-like index of chunk fingerprints with optional per-key metadata."""

    @abstractmethod
    def lookup_and_insert_many(
        self, fingerprints: Iterable[str], metadata: Optional[str] = None
    ) -> list[bool]:
        """Atomic check-and-insert of a batch of fingerprints.

        Each fingerprint is new the first time it is claimed and a
        duplicate after, in input order (so a fingerprint repeated within
        one batch is new once), and new ones are indexed with
        ``metadata``. A single key is a batch of one. Backends serve the
        whole batch at once — the distributed ring index groups keys by
        replica node and pays one network round trip per contacted node
        instead of one per key.

        Returns:
            One ``True`` (new) / ``False`` (duplicate) per fingerprint, in
            input order.
        """

    @abstractmethod
    def __len__(self) -> int:
        """Number of unique fingerprints indexed."""

    @abstractmethod
    def fingerprints(self) -> Iterator[str]:
        """Iterate over all indexed fingerprints (order unspecified)."""


class InMemoryIndex(DedupIndex):
    """Single-node in-memory index backed by a dict.

    Used by the Cloud-only baseline (index lives wholly in the cloud) and as
    the reference implementation in tests.
    """

    def __init__(self) -> None:
        self._entries: dict[str, Optional[str]] = {}

    def contains(self, fingerprint: str) -> bool:
        """True if ``fingerprint`` is indexed (a read; claims nothing)."""
        return fingerprint in self._entries

    def lookup_and_insert_many(
        self, fingerprints: Iterable[str], metadata: Optional[str] = None
    ) -> list[bool]:
        entries = self._entries
        results: list[bool] = []
        for fp in fingerprints:
            if fp in entries:
                results.append(False)
            else:
                entries[fp] = metadata
                results.append(True)
        return results

    def get_metadata(self, fingerprint: str) -> Optional[str]:
        """Metadata stored with ``fingerprint`` (None if absent or unset)."""
        return self._entries.get(fingerprint)

    def __len__(self) -> int:
        return len(self._entries)

    def fingerprints(self) -> Iterator[str]:
        return iter(self._entries)

    def clear(self) -> None:
        self._entries.clear()
