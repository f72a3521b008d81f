"""Refcount-based garbage collection for chunk payloads.

Deduplication makes deletion hard: a chunk's bytes are shared by every
file whose recipe references its fingerprint, so "delete file" can only
free a chunk when the *last* recipe referencing it goes away. The
classic answer (Data Domain, ZFS dedup) is reference counting:

- recipe put  → ``incr`` every entry's fingerprint;
- recipe drop → ``decr`` every entry's fingerprint;
- a sweep (:meth:`repro.content.plane.ContentPlane.sweep`) reclaims
  chunks whose count reached zero, plus stored-but-never-counted
  orphans.

Counts are journaled through the same
:class:`~repro.kvstore.wal.WriteAheadLog` machinery that makes node
shards crash-survivable: every mutation appends ``[fingerprint, count,
seq, tombstone]`` before it is considered applied (inside
:meth:`RefcountGC.batch` the records share one flush — ingest commits a
lookup batch's references together), snapshots bound replay, and a
restart replays snapshot+log with last-write-wins — so a
crash between a recipe delete and its sweep never orphans a chunk (the
zero count is on disk) and never double-frees one (counts are absolute,
not deltas, so replay is idempotent).

A snapshot rewrites the whole ledger, so it is taken only once the log
has grown by at least as many records as the ledger holds (and by at
least ``snapshot_every``) — the WAL's own rule,
:meth:`~repro.kvstore.wal.WriteAheadLog.due_for_snapshot`, which the
index shards' logs follow too: the rewrite is then paid for by the appends
since the last one, journaling stays amortised O(1) per reference at any
ledger size, and a restart reads at most the snapshot plus a log no longer
than ``max(snapshot_every, ledger)`` — about twice the ledger.

The GC is deliberately *cluster-scoped*, not ring-scoped: the same
fingerprint can be claimed unique by two different rings (per-ring dedup
domains), and live migration dissolves rings wholesale — a per-ring
count would be lost with its ring, while this ledger rides above the
ring lifecycle.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from typing import ContextManager, Optional, Union

from repro.kvstore.node import Entry
from repro.kvstore.wal import WriteAheadLog

_JOURNAL_NAME = "refcounts"


class RefcountGC:
    """Chunk reference ledger, optionally WAL-journaled.

    Args:
        journal_dir: directory for the refcount journal; ``None`` keeps
            the ledger in memory only (simulation runs).
        snapshot_every: fewest journal appends between snapshots (a
            ledger larger than this waits for as many appends as it has
            entries).
    """

    def __init__(
        self,
        journal_dir: Optional[Union[str, Path]] = None,
        snapshot_every: int = 512,
    ) -> None:
        self.counts: dict[str, int] = {}
        self._seq = 0
        self.underflows = 0  # decr below zero: a refcounting bug signal
        self.wal: Optional[WriteAheadLog] = None
        if journal_dir is not None:
            self.wal = WriteAheadLog(
                journal_dir, _JOURNAL_NAME, snapshot_every=snapshot_every
            )
            for fingerprint, (count, seq, tombstone) in self.wal.load().items():
                self._seq = max(self._seq, seq)
                if not tombstone:
                    # Zero counts are kept: they mark chunks whose last
                    # reference died but whose bytes await a sweep.
                    self.counts[fingerprint] = int(count)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def _journal(self, fingerprint: str, count: int, tombstone: bool = False) -> None:
        if self.wal is None:
            return
        self._seq += 1
        self.wal.append(fingerprint, str(count), self._seq, tombstone)
        if self.wal.due_for_snapshot(len(self.counts)):
            self.wal.write_snapshot(self._ledger_view())

    def _ledger_view(self) -> dict[str, Entry]:
        return {
            fingerprint: (str(count), self._seq, False)
            for fingerprint, count in self.counts.items()
        }

    def batch(self) -> ContextManager[None]:
        """Group commit: the journal records of the mutations inside the
        scope share one flush at its exit (the WAL's :meth:`~repro.kvstore.
        wal.WriteAheadLog.batch`); records and bytes are unchanged."""
        return nullcontext() if self.wal is None else self.wal.batch()

    def incr(self, fingerprint: str, n: int = 1) -> int:
        """Add ``n`` references; returns the new count."""
        count = self.counts.get(fingerprint, 0) + n
        self.counts[fingerprint] = count
        self._journal(fingerprint, count)
        return count

    def decr(self, fingerprint: str, n: int = 1) -> int:
        """Drop ``n`` references; clamps at zero (and counts the underflow
        — a negative count means incr/decr calls were unbalanced)."""
        count = self.counts.get(fingerprint, 0) - n
        if count < 0:
            self.underflows += 1
            count = 0
        self.counts[fingerprint] = count
        self._journal(fingerprint, count)
        return count

    def forget(self, fingerprint: str) -> None:
        """Remove a fingerprint from the ledger entirely (after its bytes
        are reclaimed). Journaled as a tombstone so replay forgets too."""
        if self.counts.pop(fingerprint, None) is not None:
            self._journal(fingerprint, 0, tombstone=True)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def count(self, fingerprint: str) -> int:
        return self.counts.get(fingerprint, 0)

    def tracked(self) -> frozenset[str]:
        return frozenset(self.counts)

    def live_refs(self) -> dict[str, int]:
        return {fp: c for fp, c in self.counts.items() if c > 0}

    def zero_refs(self) -> list[str]:
        """Fingerprints whose last reference is gone — sweep candidates."""
        return sorted(fp for fp, c in self.counts.items() if c == 0)

    def metrics(self) -> dict[str, float]:
        live = sum(1 for c in self.counts.values() if c > 0)
        return {
            "tracked": float(len(self.counts)),
            "live": float(live),
            "zero": float(len(self.counts) - live),
            "underflows": float(self.underflows),
            "journal_appends": float(self.wal.stats.appends) if self.wal else 0.0,
            "journal_flushes": float(self.wal.stats.flushes) if self.wal else 0.0,
            "journal_snapshots": float(self.wal.stats.snapshots) if self.wal else 0.0,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "RefcountGC":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
