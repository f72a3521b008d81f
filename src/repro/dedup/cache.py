"""Dedup index caches.

Sec. III-A suggests the fitted chunk-pool model "can help guide ... what
should be maintained in the deduplication cache (e.g., to maintain the
chunks that appear with higher probability in the chunk pools)". A cache in
front of a D2-ring's distributed index turns remote hits into local ones
for the hottest hashes — a pure latency win (false negatives only cause a
redundant remote lookup, never corruption, because the cache is only
consulted for *presence*).

Two policies:

- :class:`LRUCacheIndex` — classic recency cache;
- :class:`ModelGuidedCacheIndex` — admits a fingerprint only with the
  model-derived probability that its chunk recurs, so one-hit wonders
  (chunks from huge pools) don't evict hot entries.

Both wrap any :class:`~repro.dedup.index.DedupIndex` and preserve its
semantics exactly; they only change *where* positive lookups are answered.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.dedup.index import DedupIndex

# Maps a fingerprint to the probability its chunk recurs soon (model-derived).
RecurrenceScorer = Callable[[str], float]

_MISSING = object()  # cache values are None, so pop needs a real sentinel


@dataclass(slots=True)
class CacheStats:
    """Hit/miss accounting for a cache layer.

    The fields are the counter series, bare-named; wherever the object is
    mounted (``cache.*`` on a ring's hub, in the live CLI's printout) adds
    the prefix, and :attr:`hit_rate` is the one derived gauge exported
    beside them.
    """

    hits: int = 0
    misses: int = 0
    admissions: int = 0
    rejections: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCacheIndex(DedupIndex):
    """An LRU presence cache in front of a backing dedup index.

    A positive cache hit answers the lookup locally; a miss falls through to
    the backing index (the remote D2-ring store) and the result is cached.
    """

    def __init__(self, backing: DedupIndex, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.backing = backing
        self.capacity = capacity
        self._cache: OrderedDict[str, None] = OrderedDict()
        self.stats = CacheStats()

    # -- cache mechanics ------------------------------------------------ #

    def _cache_hit(self, fingerprint: str) -> bool:
        if fingerprint in self._cache:
            self._cache.move_to_end(fingerprint)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def _admit(self, fingerprint: str) -> None:
        self._cache[fingerprint] = None
        self._cache.move_to_end(fingerprint)
        self.stats.admissions += 1
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
            self.stats.evictions += 1

    def _would_admit(self, fingerprint: str) -> bool:
        """Whether :meth:`_admit` would insert this key — pure (no stats, no
        mutation), so the batched path can simulate cache evolution."""
        return True

    def discard(self, fingerprint: str) -> bool:
        """Invalidate one cached presence entry; True if it was cached.

        Required whenever presence stops being true *below* the cache —
        a GC sweep reclaimed the chunk, or brownout reconciliation is about
        to re-derive the verdict. A stale cached "present" would mark a
        re-ingested chunk duplicate without re-storing its payload, losing
        data on restore.
        """
        return self._cache.pop(fingerprint, _MISSING) is not _MISSING

    def discard_many(self, fingerprints) -> int:
        """Invalidate a batch of cached presence entries; returns how many
        were actually cached (counted in ``stats.invalidations``)."""
        dropped = sum(1 for fp in fingerprints if self.discard(fp))
        self.stats.invalidations += dropped
        return dropped

    # -- DedupIndex API --------------------------------------------------#

    def lookup_and_insert_many(self, fingerprints, metadata: Optional[str] = None) -> list[bool]:
        """Batched check-and-set that keeps the backing batch intact.

        Cache hits are answered locally; only misses travel to the backing
        index, in one ``lookup_and_insert_many`` call (none when every key
        hit) — so a remote backing (a D2-ring store) still pays one round
        trip per contacted node, not one per key. Results, stats, and cache
        state match claiming the keys one batch of one at a time, including
        intra-batch repeats: a repeat whose first occurrence was admitted
        is a cache *hit*, while a repeat whose first occurrence was
        rejected by admission — or already evicted within the batch — is a
        miss.

        Requires a deterministic admission decision (``_would_admit``): the
        keys that miss are predicted first, and the real cache and stats
        are only touched after the backing batch returns — so a failed
        remote round cannot leave phantom cached presence behind (a false
        "cached present" would mark a never-stored chunk as duplicate).
        """
        fps = list(fingerprints)
        misses = self._predict_misses(fps)
        # No backing call when every key hit: an empty batch is not a round.
        backed = iter(self.backing.lookup_and_insert_many(misses, metadata) if misses else ())
        # Replay the per-key cache walk with the backing answers pre-fetched;
        # the prediction guarantees they are consumed in order.
        results: list[bool] = []
        for fp in fps:
            if self._cache_hit(fp):
                results.append(False)  # cached presence: definitely a duplicate
            else:
                results.append(next(backed))
                self._admit(fp)
        return results

    def _predict_misses(self, fps: list[str]) -> list[str]:
        """The keys of ``fps`` the replay will miss, in order, without
        mutating the cache or copying it.

        Keys the batch touches (hits and admissions) live in an overlay in
        recency order; the cache's untouched entries keep their order and
        are all older than the overlay, so evictions take them first, then
        the overlay's oldest. O(len(fps)), not O(capacity).
        """
        cache = self._cache
        touched: OrderedDict[str, None] = OrderedDict()
        gone: set[str] = set()  # cached keys this batch has evicted
        untouched = iter(cache)
        size = len(cache)
        misses: list[str] = []
        for fp in fps:
            if fp in touched:
                touched.move_to_end(fp)
                continue
            if fp in cache and fp not in gone:
                touched[fp] = None
                continue
            misses.append(fp)
            if not self._would_admit(fp):
                continue
            touched[fp] = None
            size += 1
            while size > self.capacity:
                oldest = next((k for k in untouched if k not in touched and k not in gone), None)
                if oldest is None:
                    oldest, _ = touched.popitem(last=False)
                gone.add(oldest)
                size -= 1
        return misses

    def __len__(self) -> int:
        return len(self.backing)

    def fingerprints(self) -> Iterator[str]:
        return self.backing.fingerprints()

    @property
    def cached_entries(self) -> int:
        return len(self._cache)


class ModelGuidedCacheIndex(LRUCacheIndex):
    """LRU cache with model-guided admission.

    A fingerprint is admitted only when ``scorer(fingerprint)`` — e.g. the
    fitted model's probability that the chunk's pool is hot — clears
    ``admit_threshold``. Everything else behaves like the LRU cache, and
    the same stats distinguish admissions from rejections.
    """

    def __init__(
        self,
        backing: DedupIndex,
        scorer: RecurrenceScorer,
        capacity: int = 4096,
        admit_threshold: float = 0.5,
    ) -> None:
        super().__init__(backing, capacity)
        if not 0.0 <= admit_threshold <= 1.0:
            raise ValueError(
                f"admit_threshold must be in [0, 1], got {admit_threshold!r}"
            )
        self.scorer = scorer
        self.admit_threshold = admit_threshold

    def _would_admit(self, fingerprint: str) -> bool:
        # The scorer must be deterministic: the batched path evaluates it
        # once while simulating and once while admitting for real.
        return self.scorer(fingerprint) >= self.admit_threshold

    def _admit(self, fingerprint: str) -> None:
        if not self._would_admit(fingerprint):
            self.stats.rejections += 1
            return
        super()._admit(fingerprint)
