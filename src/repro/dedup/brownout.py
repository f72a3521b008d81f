"""Brownout dedup: write-through when the index ring sheds or breaks.

When the (possibly remote) dedup index becomes unavailable — overloaded
and shedding, circuit-broken, timing out — an agent faces a choice:

- **fail the ingest** (availability follows the index), or
- **skip dedup for now**: store the chunk *as if unique* without a
  verdict, journal the fingerprint, and settle the accounting later.

:class:`BrownoutIndex` implements the second. It wraps any
:class:`~repro.dedup.index.DedupIndex`; while healthy it is a transparent
pass-through. When the inner index raises one of ``trip_on`` the wrapper
*trips*: every claim is answered ``True`` (new → the engine stores the
chunk, so ingest keeps absorbing data) and the ``(fingerprint, metadata)``
occurrence is appended to a journal, in order. After ``cooldown_s`` a
half-open probe retries the inner index; success closes the brownout.

The availability cost is *redundant uploads*, never lost data: a chunk
stored under a false "unique" verdict is extra copy, not corruption. The
accounting cost is repaired by :meth:`BrownoutIndex.reconcile`, which
replays the journal through the recovered index in arrival order. Every
occurrence the replay reports as a duplicate was over-counted as unique
during the brownout, so the engine's :class:`~repro.dedup.stats.DedupStats`
is corrected by exactly that chunk's length — restoring the *exact* ratio
an unloaded run would have produced (the engine's per-occurrence
``raw_bytes``/``raw_chunks`` were always right; only the unique/duplicate
split was provisional).

Chunk lengths are captured out-of-band via :meth:`note_length` (the ring's
unique-sink wrapper calls it as the engine materializes each write-through
chunk): identical fingerprint ⇒ identical content ⇒ one length per
fingerprint, so a dict is enough.

This module deliberately knows nothing about RPC: the wrapper takes the
exception types to trip on (``trip_on``) from its creator, so the dedup
package stays transport-free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from repro.dedup.index import DedupIndex
from repro.dedup.stats import DedupStats


@dataclass
class BrownoutStats:
    """Accounting for one agent's brownout wrapper."""

    trips: int = 0  # healthy → brownout transitions
    probes: int = 0  # half-open re-tries of the inner index
    write_through: int = 0  # claims answered True without a verdict
    journaled: int = 0  # occurrences recorded for reconciliation
    reconciled: int = 0  # journal entries replayed
    corrected_chunks: int = 0  # false-uniques repaid as duplicates
    corrected_bytes: int = 0


class BrownoutIndex(DedupIndex):
    """Write-through fallback around a trippable index.

    Args:
        inner: the real index (e.g. a ring-backed ``RingIndex``).
        trip_on: exception types that flip the wrapper into brownout
            (typically ``RpcOverloadError``, ``CircuitOpenError``,
            ``RpcTimeoutError``, ``DeadlineExceededError`` — injected by
            the caller so this module stays transport-free).
        cooldown_s: how long a tripped wrapper answers write-through
            before spending one probe on the inner index again.
        clock: monotonic time source (overridable in tests).
    """

    def __init__(
        self,
        inner: DedupIndex,
        trip_on: tuple[type[BaseException], ...],
        cooldown_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not trip_on:
            raise ValueError("trip_on needs at least one exception type")
        if cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be positive, got {cooldown_s!r}")
        self.inner = inner
        self.trip_on = tuple(trip_on)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self.stats = BrownoutStats()
        self.active = False
        self._tripped_at = 0.0
        self.journal: list[tuple[str, Optional[str]]] = []
        self._lengths: dict[str, int] = {}

    # -- brownout state -------------------------------------------------- #

    def _trip(self) -> None:
        if not self.active:
            self.active = True
            self.stats.trips += 1
        self._tripped_at = self._clock()

    def _should_probe(self) -> bool:
        return self._clock() - self._tripped_at >= self.cooldown_s

    def _write_through(
        self, fingerprints: list[str], metadata: Optional[str]
    ) -> list[bool]:
        for fp in fingerprints:
            self.journal.append((fp, metadata))
        self.stats.journaled += len(fingerprints)
        self.stats.write_through += len(fingerprints)
        return [True] * len(fingerprints)

    # -- DedupIndex surface ---------------------------------------------- #

    def lookup_and_insert_many(
        self, fingerprints: Iterable[str], metadata: Optional[str] = None
    ) -> list[bool]:
        fps = list(fingerprints)
        if self.active and not self._should_probe():
            return self._write_through(fps, metadata)
        if self.active:
            self.stats.probes += 1
        try:
            results = self.inner.lookup_and_insert_many(fps, metadata=metadata)
        except self.trip_on:
            self._trip()
            return self._write_through(fps, metadata)
        self.active = False  # the probe (or a healthy call) succeeded
        return results

    def __len__(self) -> int:
        return len(self.inner)

    def fingerprints(self) -> Iterator[str]:
        return self.inner.fingerprints()

    # -- reconciliation --------------------------------------------------- #

    def note_length(self, fingerprint: str, nbytes: int) -> None:
        """Record a write-through chunk's length for later stat repair
        (identical fingerprint ⇒ identical content ⇒ one length)."""
        self._lengths.setdefault(fingerprint, int(nbytes))

    def reconcile(self, stats: Optional[DedupStats] = None, batch: int = 64) -> dict:
        """Replay the journal through the recovered inner index, in order.

        Each occurrence that the replay reports as a *duplicate* was
        over-counted as unique during the brownout; when ``stats`` (the
        owning engine's counters) is given, each such occurrence moves one
        chunk from the unique column to the duplicate column — after which
        the ratio matches what an unloaded run would have produced.
        Occurrences the replay reports as *new* were genuinely first
        claims; their write-through verdict was accidentally right and
        needs no correction (the replay inserts them for real).

        With ``stats=None`` the replay only repairs the *index* (the
        write-through claims finally land) and touches no correction
        counters — the mode for callers that already repaired the
        accounting at the storage sink, where an authoritative duplicate
        signal exists (see :meth:`D2Ring.reconcile_brownouts`). The
        returned ``corrected_*`` numbers then merely report what the
        replay observed.

        Raises whatever the inner index raises if it is still unhealthy —
        the journal is restored intact so a later sweep can retry.
        """
        entries, self.journal = self.journal, []
        corrected_chunks = 0
        corrected_bytes = 0
        missing_lengths = 0
        settled = 0  # entries fully replayed into the inner index
        try:
            while settled < len(entries):
                # One metadata value per inner call: take up to ``batch``
                # consecutive entries sharing a metadata label (metadata is
                # a provenance tag; verdicts do not depend on it, but keep
                # it faithful on the replayed inserts).
                end = settled
                meta = entries[settled][1]
                while (
                    end < len(entries)
                    and end - settled < batch
                    and entries[end][1] == meta
                ):
                    end += 1
                run = [fp for fp, _ in entries[settled:end]]
                verdicts = self.inner.lookup_and_insert_many(run, metadata=meta)
                for fp, was_new in zip(run, verdicts):
                    self.stats.reconciled += 1
                    if was_new:
                        continue
                    length = self._lengths.get(fp)
                    if length is None:
                        missing_lengths += 1
                        length = 0
                    corrected_chunks += 1
                    corrected_bytes += length
                    if stats is not None:
                        stats.unique_chunks -= 1
                        stats.unique_bytes -= length
                        stats.duplicate_chunks += 1
                settled = end
        except self.trip_on:
            # Still unhealthy: restore the un-replayed tail (settled
            # entries live in the inner index now) and surface the partial
            # corrections so the caller's stats stay consistent.
            self.journal = entries[settled:] + self.journal
            if stats is not None:
                self.stats.corrected_chunks += corrected_chunks
                self.stats.corrected_bytes += corrected_bytes
            self._trip()
            raise
        if stats is not None:
            self.stats.corrected_chunks += corrected_chunks
            self.stats.corrected_bytes += corrected_bytes
        self.active = False
        return {
            "replayed": len(entries),
            "corrected_chunks": corrected_chunks,
            "corrected_bytes": corrected_bytes,
            "missing_lengths": missing_lengths,
        }
