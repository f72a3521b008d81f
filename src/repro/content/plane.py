"""ContentPlane: the cluster-wide payload data plane.

Ties the three payload layers together above the ring lifecycle:

- **edge**: each ring's :class:`~repro.content.ring_store.RingContentStore`
  (fast path, one copy, dies with its nodes);
- **cloud tier**: an erasure-coded
  :class:`~repro.erasure.striped_store.ErasureCodedChunkStore` (durable
  path, RS(k, m) across failure zones);
- **ledger**: a :class:`~repro.content.gc.RefcountGC` deciding when bytes
  may be reclaimed.

Write path: the dedup engine's ``unique_sink`` (once per lookup batch)
lands the payloads on the ring store, then *spills* the batch to the cloud
tier in one encode pass — synchronously, or on a background thread
(``spill_mode="async"``) so the WAN stripe write is off the ingest hot
path. A stripe that finds too few zones up is deferred, not lost, and
the deferred chunks are retried as one batch on :meth:`flush`.

Read path (:meth:`fetch` / :meth:`fetch_many`): edge stores first, cloud
tier second — the tier reconstructs from any k of n shards, so restores
keep working with up to m zones failed *and* every edge copy gone.

GC invariants (checked by the restore chaos scenario):

- a chunk referenced by any recipe is never reclaimed (count > 0);
- a sweep removes a reclaimed fingerprint from edge stores, cloud tier,
  the central index *and* the accounting cloud, keeping the chaos
  invariant ``index keys == cloud fingerprints`` intact;
- counts are WAL-journaled (crash-restart replays them) and
  cluster-scoped (ring dissolution during live migration cannot lose
  them).
"""

from __future__ import annotations

import queue
import threading
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.content.gc import RefcountGC
from repro.erasure.striped_store import ZoneFailedError
from repro.kvstore.errors import KVStoreError
from repro.obs.hub import series
from repro.rpc.errors import RpcError

_STOP = object()


@dataclass
class PlaneStats:
    """Counters for the plane itself (spill + fetch traffic)."""

    spills: int = 0
    spill_bytes: int = 0
    spill_dups: int = 0
    deferred_spills: int = 0
    fetches: int = 0
    edge_hits: int = 0
    tier_hits: int = 0
    fetch_misses: int = 0
    sweeps: int = 0
    swept_chunks: int = 0
    reclaimed_bytes: int = 0


@dataclass
class SweepReport:
    """Outcome of one GC sweep."""

    candidates: int = 0
    swept: int = 0
    reclaimed_payload_bytes: int = 0
    edge_copies_deleted: int = 0
    edge_bytes_deleted: int = 0
    index_tombstones: int = 0
    orphans_adopted: int = 0  # stored but never refcounted
    elapsed_s: float = 0.0
    swept_fingerprints: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "candidates": self.candidates,
            "swept": self.swept,
            "reclaimed_payload_bytes": self.reclaimed_payload_bytes,
            "edge_copies_deleted": self.edge_copies_deleted,
            "edge_bytes_deleted": self.edge_bytes_deleted,
            "index_tombstones": self.index_tombstones,
            "orphans_adopted": self.orphans_adopted,
            "elapsed_s": self.elapsed_s,
        }


class ContentPlane:
    """Cluster-wide payload plane: edge ring stores + erasure tier + GC.

    Args:
        tier: the durable content store, an ``ErasureCodedChunkStore``
            (the plane calls its batch forms ``put_chunks`` / ``get_chunks``).
        gc: reference ledger; a fresh in-memory one when omitted.
        spill_mode: ``"sync"`` stripes to the tier inside the sink call;
            ``"async"`` hands it to a background thread (``flush()`` joins).
    """

    def __init__(self, tier, gc: Optional[RefcountGC] = None, spill_mode: str = "sync") -> None:
        if spill_mode not in ("sync", "async"):
            raise ValueError(f"spill_mode must be 'sync' or 'async', got {spill_mode!r}")
        self.tier = tier
        self.gc = gc if gc is not None else RefcountGC()
        self.spill_mode = spill_mode
        self.stats = PlaneStats()
        # ring_id -> D2Ring. Weak: each ring holds the plane, so the plane
        # must not keep a ring alive (and a closed, dropped ring is gone).
        self._rings = weakref.WeakValueDictionary()
        # The tier is touched from the spill worker and the caller thread.
        self._tier_lock = threading.Lock()
        self._deferred: list[tuple[str, bytes]] = []
        self._queue: Optional[queue.Queue] = None
        self._worker: Optional[threading.Thread] = None
        if spill_mode == "async":
            self._queue = queue.Queue()
            self._worker = threading.Thread(
                target=self._spill_loop, name="content-spill", daemon=True
            )
            self._worker.start()

    # ------------------------------------------------------------------ #
    # ring registry
    # ------------------------------------------------------------------ #

    def register_ring(self, ring) -> None:
        self._rings[ring.ring_id] = ring

    def forget_ring(self, ring_id: str) -> None:
        self._rings.pop(ring_id, None)

    def ring_stores(self) -> list:
        return [
            ring.content for ring in self._rings.values() if ring.content is not None
        ]

    # ------------------------------------------------------------------ #
    # write path: spill to the durable tier
    # ------------------------------------------------------------------ #

    def spill(self, fingerprint: str, data: bytes) -> None:
        """Stripe one unique chunk to the cloud tier (async mode queues)."""
        self.spill_many([(fingerprint, data)])

    def spill_many(self, entries: list[tuple[str, bytes]]) -> None:
        """Stripe a batch of unique chunks to the cloud tier in one encode
        pass (async mode queues the batch)."""
        batch = [(fingerprint, bytes(data)) for fingerprint, data in entries]
        if self._queue is not None:
            self._queue.put(batch)
        else:
            self._spill_now(batch)

    def _spill_now(self, batch: list[tuple[str, bytes]]) -> None:
        with self._tier_lock:
            outcomes = self.tier.put_chunks(batch)
            for (fingerprint, data), outcome in zip(batch, outcomes):
                if isinstance(outcome, ZoneFailedError):
                    # Too few zones for durability right now: defer, don't drop.
                    self._deferred.append((fingerprint, data))
                    self.stats.deferred_spills += 1
                elif outcome:
                    self.stats.spills += 1
                    self.stats.spill_bytes += len(data)
                else:
                    self.stats.spill_dups += 1

    def _spill_loop(self) -> None:
        while True:
            batch = self._queue.get()
            if batch is _STOP:
                self._queue.task_done()
                return
            try:
                self._spill_now(batch)
            finally:
                self._queue.task_done()

    def flush(self) -> None:
        """Drain the spill queue and retry deferred stripes; on return every
        accepted chunk is either durable in the tier or still deferred
        because too few zones are up."""
        for ring in list(self._rings.values()):
            if ring.content is not None:
                ring.content.flush()
        if self._queue is not None:
            self._queue.join()
        deferred, self._deferred = self._deferred, []
        if deferred:
            # _spill_now re-defers on ZoneFailedError, so nothing is lost.
            self._spill_now(deferred)

    @property
    def deferred_spills_pending(self) -> int:
        return len(self._deferred)

    # ------------------------------------------------------------------ #
    # read path: the cluster-backed ChunkFetcher
    # ------------------------------------------------------------------ #

    def fetch(self, fingerprint: str) -> bytes:
        """Resolve one fingerprint to bytes: edge stores first, then the
        erasure tier (k-of-n reconstruction). Raises KeyError when no
        layer holds it — the contract ``restore_file`` expects."""
        return self.fetch_many([fingerprint])[fingerprint]

    def fetch_many(self, fingerprints: Iterable[str]) -> dict[str, bytes]:
        """Batched fetch for the restore path: one scatter per ring for the
        whole set, tier reconstruction only for the leftovers. Raises
        KeyError naming the first fingerprint no layer holds."""
        wanted = list(dict.fromkeys(fingerprints))
        self.stats.fetches += len(wanted)
        found: dict[str, bytes] = {}
        missing = wanted
        for store in self.ring_stores():
            if not missing:
                break
            got = store.get_many(missing)
            found.update(got)
            missing = [fp for fp in missing if fp not in found]
        self.stats.edge_hits += len(found)
        if missing:
            self.flush()  # a queued spill may hold the only durable copy
        with self._tier_lock:  # one acquisition and one decode pass per batch
            outcomes = self.tier.get_chunks(missing)
        for fingerprint, outcome in zip(missing, outcomes):
            if isinstance(outcome, KeyError):
                self.stats.fetch_misses += 1
                raise KeyError(
                    f"chunk {fingerprint!r} not found in any content layer"
                ) from None
            if isinstance(outcome, Exception):
                raise outcome
            found[fingerprint] = outcome
            self.stats.tier_hits += 1
        return found

    # ------------------------------------------------------------------ #
    # garbage collection
    # ------------------------------------------------------------------ #

    def sweep(
        self,
        cloud=None,
        include_unreferenced: bool = True,
    ) -> SweepReport:
        """Reclaim every chunk whose refcount is zero (plus, by default,
        stored-but-untracked orphans) from edge stores, cloud tier, the
        fingerprint index of every registered ring, and the accounting
        cloud — then drop it from the ledger.

        Index and accounting-cloud removal move together so the chaos
        invariant *index keys == cloud fingerprints* holds across sweeps.
        """
        import time as _time

        started = _time.perf_counter()
        self.flush()
        report = SweepReport()
        candidates = set(self.gc.zero_refs())
        if include_unreferenced:
            with self._tier_lock:
                stored = set(self.tier.fingerprints())
            for store in self.ring_stores():
                stored |= store.fingerprints()
            orphans = stored - self.gc.tracked()
            report.orphans_adopted = len(orphans)
            candidates |= orphans
        report.candidates = len(candidates)
        if not candidates:
            report.elapsed_s = _time.perf_counter() - started
            self.stats.sweeps += 1
            return report
        ordered = sorted(candidates)
        # Agent presence caches must forget the doomed fingerprints before
        # (not after) the payloads go: a stale cached "present" would mark
        # a re-ingested chunk duplicate without re-storing it — data loss
        # at the next restore.
        for ring in self._rings.values():
            invalidate = getattr(ring, "invalidate_cached_presence", None)
            if invalidate is not None:
                invalidate(ordered)
        for store in self.ring_stores():
            copies, freed = store.delete_many(ordered)
            report.edge_copies_deleted += copies
            report.edge_bytes_deleted += freed
        for ring in self._rings.values():
            try:
                report.index_tombstones += ring.store.delete_many(ordered)
            except (KVStoreError, RpcError):
                # Index unreachable (too few replicas up): best-effort;
                # anti-entropy spreads the tombstone once written, and a
                # sweep during a full outage is an operator error.
                continue
        for fingerprint in ordered:
            with self._tier_lock:
                before = getattr(self.tier, "payload_bytes", 0)
                deleted = self.tier.delete_chunk(fingerprint)
                after = getattr(self.tier, "payload_bytes", 0)
            if deleted:
                report.swept += 1
                report.reclaimed_payload_bytes += max(0, before - after)
            if cloud is not None:
                cloud.drop_chunk(fingerprint)
            self.gc.forget(fingerprint)
        report.swept_fingerprints = ordered
        report.elapsed_s = _time.perf_counter() - started
        self.stats.sweeps += 1
        self.stats.swept_chunks += report.swept
        self.stats.reclaimed_bytes += report.reclaimed_payload_bytes
        return report

    # ------------------------------------------------------------------ #
    # observability and lifecycle
    # ------------------------------------------------------------------ #

    def metrics(self) -> dict[str, int]:
        return {
            **series(self.stats),
            "deferred_pending": len(self._deferred),
            "registered_rings": len(self._rings),
        }

    def close(self) -> None:
        if self._queue is not None and self._worker is not None:
            self._queue.put(_STOP)
            self._worker.join(timeout=5.0)
            self._queue = None
            self._worker = None
        self.gc.close()

    def __enter__(self) -> "ContentPlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
