"""The retired copy-based LRU miss prediction, kept as the test oracle.

Until the overlay replaced it, ``LRUCacheIndex.lookup_and_insert_many``
predicted a batch's cache misses by replaying the per-key cache walk on a
full copy of the cache — O(capacity) per call, so a batch of one against a
4 096-entry cache cost ~0.5 ms. It shares only ``_would_admit`` and
``capacity`` with the production path, so agreement between the two is
evidence, not tautology.
"""

from __future__ import annotations

from repro.dedup.cache import LRUCacheIndex, ModelGuidedCacheIndex


def copy_predicted_misses(cache: LRUCacheIndex, fps: list[str]) -> list[str]:
    """The keys of ``fps`` the cache walk misses, in order, simulated on a
    copy of the cache."""
    sim = cache._cache.copy()
    misses: list[str] = []
    for fp in fps:
        if fp in sim:
            sim.move_to_end(fp)
        else:
            misses.append(fp)
            if cache._would_admit(fp):
                sim[fp] = None
                while len(sim) > cache.capacity:
                    sim.popitem(last=False)
    return misses


class OracleLRUCacheIndex(LRUCacheIndex):
    _predict_misses = copy_predicted_misses


class OracleModelGuidedCacheIndex(ModelGuidedCacheIndex):
    _predict_misses = copy_predicted_misses
