"""Deduplication accounting.

Tracks the raw/unique byte and chunk counts of a dedup run and derives the
ratios the paper reports. The *deduplication ratio* follows the paper's
definition (Sec. II): original data size divided by deduplicated storage
size, so 1.0 means "no redundancy found" and larger is better.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DedupStats:
    """Mutable accounting for one deduplication run."""

    raw_bytes: int = 0
    unique_bytes: int = 0
    raw_chunks: int = 0
    unique_chunks: int = 0
    lookups: int = 0
    duplicate_chunks: int = field(init=False, default=0)

    def record_chunk(self, nbytes: int, is_unique: bool) -> None:
        """Account for one processed chunk of ``nbytes`` bytes."""
        if nbytes < 0:
            raise ValueError(f"chunk size must be non-negative, got {nbytes!r}")
        self.record_batch(1, nbytes, int(is_unique), nbytes if is_unique else 0)

    def record_batch(self, chunks: int, nbytes: int, unique_chunks: int, unique_bytes: int) -> None:
        """Account for a lookup batch: ``chunks`` chunks of ``nbytes`` bytes
        in all, of which ``unique_chunks`` (``unique_bytes``) were new."""
        self.raw_bytes += nbytes
        self.raw_chunks += chunks
        self.lookups += chunks
        self.unique_bytes += unique_bytes
        self.unique_chunks += unique_chunks
        self.duplicate_chunks += chunks - unique_chunks

    @property
    def dedup_ratio(self) -> float:
        """Original size / deduplicated size (paper's definition; >= 1.0).

        Zero unique bytes with nonzero raw bytes is a legitimate state:
        a ring whose index was seeded by a live migration's carried shard
        can see only duplicates. Its deduplicated size is 0, so the ratio
        is unbounded — reported as ``inf`` rather than an error.
        """
        if self.raw_bytes == 0:
            return 1.0
        if self.unique_bytes == 0:
            return float("inf")
        return self.raw_bytes / self.unique_bytes

    @property
    def space_savings(self) -> float:
        """Fraction of bytes eliminated: 1 - unique/raw (in [0, 1))."""
        if self.raw_bytes == 0:
            return 0.0
        return 1.0 - self.unique_bytes / self.raw_bytes

    @property
    def duplicate_fraction(self) -> float:
        """Fraction of chunks that were duplicates."""
        if self.raw_chunks == 0:
            return 0.0
        return self.duplicate_chunks / self.raw_chunks

    def merge(self, other: "DedupStats") -> "DedupStats":
        """Combine accounting from two runs (e.g. per-node stats into a ring).

        Note: merging is additive — it assumes the two runs shared an index,
        so their unique counts do not double-count. Merging stats from
        *independent* indexes gives an upper bound on unique bytes.
        """
        merged = DedupStats(
            raw_bytes=self.raw_bytes + other.raw_bytes,
            unique_bytes=self.unique_bytes + other.unique_bytes,
            raw_chunks=self.raw_chunks + other.raw_chunks,
            unique_chunks=self.unique_chunks + other.unique_chunks,
            lookups=self.lookups + other.lookups,
        )
        merged.duplicate_chunks = self.duplicate_chunks + other.duplicate_chunks
        return merged

    def as_dict(self) -> dict[str, float]:
        return {
            "raw_bytes": float(self.raw_bytes),
            "unique_bytes": float(self.unique_bytes),
            "raw_chunks": float(self.raw_chunks),
            "unique_chunks": float(self.unique_chunks),
            "duplicate_chunks": float(self.duplicate_chunks),
            "lookups": float(self.lookups),
            "dedup_ratio": self.dedup_ratio,
            "space_savings": self.space_savings,
        }
