"""Tests for the dedup cache layers (LRU and model-guided admission)."""

import pytest

from repro.dedup.cache import LRUCacheIndex, ModelGuidedCacheIndex
from repro.dedup.index import InMemoryIndex
from repro.obs import series


class TestLRUCacheIndex:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCacheIndex(InMemoryIndex(), capacity=0)

    def test_semantics_match_backing(self):
        """The cache never changes dedup answers, only where they come from."""
        plain = InMemoryIndex()
        cached = LRUCacheIndex(InMemoryIndex(), capacity=8)
        sequence = ["a", "b", "a", "c", "a", "b", "d", "d", "e", "a"]
        for fp in sequence:
            assert plain.lookup_and_insert(fp) == cached.lookup_and_insert(fp)
        assert len(plain) == len(cached)

    def test_hit_counts(self):
        cache = LRUCacheIndex(InMemoryIndex(), capacity=8)
        cache.lookup_and_insert("x")  # miss, admitted
        cache.lookup_and_insert("x")  # hit
        cache.lookup_and_insert("x")  # hit
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_eviction_at_capacity(self):
        cache = LRUCacheIndex(InMemoryIndex(), capacity=2)
        for fp in ("a", "b", "c"):
            cache.lookup_and_insert(fp)
        assert cache.cached_entries == 2
        assert cache.stats.evictions == 1

    def test_lru_order(self):
        cache = LRUCacheIndex(InMemoryIndex(), capacity=2)
        cache.lookup_and_insert("a")
        cache.lookup_and_insert("b")
        cache.lookup_and_insert("a")  # refresh a
        cache.lookup_and_insert("c")  # evicts b, not a
        cache.stats.hits = cache.stats.misses = 0
        cache.lookup_and_insert("a")
        assert cache.stats.hits == 1  # a stayed cached
        cache.lookup_and_insert("b")
        assert cache.stats.misses == 1  # b was evicted (but still a dup!)

    def test_evicted_entry_still_duplicate_via_backing(self):
        cache = LRUCacheIndex(InMemoryIndex(), capacity=1)
        cache.lookup_and_insert("a")
        cache.lookup_and_insert("b")  # evicts a from cache
        assert cache.lookup_and_insert("a") is False  # backing remembers

    def test_contains_populates_cache(self):
        backing = InMemoryIndex()
        backing.insert("warm")
        cache = LRUCacheIndex(backing, capacity=4)
        assert cache.contains("warm")  # miss -> backing -> admitted
        assert cache.contains("warm")  # now a cache hit
        assert cache.stats.hits == 1

    def test_contains_absent_not_cached(self):
        cache = LRUCacheIndex(InMemoryIndex(), capacity=4)
        assert cache.contains("nope") is False
        assert cache.cached_entries == 0

    def test_insert_passthrough(self):
        cache = LRUCacheIndex(InMemoryIndex(), capacity=4)
        assert cache.insert("a") is True
        assert cache.insert("a") is False

    def test_len_and_fingerprints_from_backing(self):
        cache = LRUCacheIndex(InMemoryIndex(), capacity=1)
        for fp in ("a", "b", "c"):
            cache.lookup_and_insert(fp)
        assert len(cache) == 3
        assert set(cache.fingerprints()) == {"a", "b", "c"}


class TestModelGuidedCacheIndex:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ModelGuidedCacheIndex(InMemoryIndex(), scorer=lambda fp: 1.0, admit_threshold=2.0)

    def test_low_score_rejected_from_cache(self):
        cache = ModelGuidedCacheIndex(
            InMemoryIndex(),
            scorer=lambda fp: 0.9 if fp.startswith("hot") else 0.1,
            capacity=8,
            admit_threshold=0.5,
        )
        cache.lookup_and_insert("hot-1")
        cache.lookup_and_insert("cold-1")
        assert cache.cached_entries == 1
        assert cache.stats.rejections == 1
        # Cold entries still dedup correctly through the backing index.
        assert cache.lookup_and_insert("cold-1") is False

    def test_hot_entries_survive_cold_churn(self):
        """Under one-hit-wonder churn the guided cache keeps its hot set;
        a plain LRU of the same size would have evicted it."""
        scorer = lambda fp: 1.0 if fp.startswith("hot") else 0.0
        guided = ModelGuidedCacheIndex(
            InMemoryIndex(), scorer=scorer, capacity=4, admit_threshold=0.5
        )
        lru = LRUCacheIndex(InMemoryIndex(), capacity=4)
        for cache in (guided, lru):
            for i in range(4):
                cache.lookup_and_insert(f"hot-{i}")
            for i in range(100):  # churn
                cache.lookup_and_insert(f"cold-{i}")
            cache.stats.hits = cache.stats.misses = 0
            for i in range(4):
                cache.lookup_and_insert(f"hot-{i}")
        assert guided.stats.hits == 4  # all hot entries still cached
        assert lru.stats.hits == 0  # churned out

    def test_semantics_still_exact(self):
        plain = InMemoryIndex()
        guided = ModelGuidedCacheIndex(
            InMemoryIndex(), scorer=lambda fp: 0.0, capacity=4
        )
        for fp in ["a", "b", "a", "c", "a"]:
            assert plain.lookup_and_insert(fp) == guided.lookup_and_insert(fp)


class TestCacheStatsSnapshot:
    def test_snapshot_uses_canonical_metric_names(self):
        cache = LRUCacheIndex(InMemoryIndex(), capacity=4)
        cache.lookup_and_insert("x")  # miss, admitted
        cache.lookup_and_insert("x")  # hit
        assert series(cache.stats) == {
            "hits": 1,
            "misses": 1,
            "admissions": 1,
            "rejections": 0,
            "evictions": 0,
            "invalidations": 0,
        }
        assert cache.stats.hit_rate == 0.5

    def test_series_values_keep_the_field_type(self):
        cache = LRUCacheIndex(InMemoryIndex(), capacity=4)
        assert all(type(v) is int for v in series(cache.stats).values())
        assert isinstance(cache.stats.hit_rate, float)

    def test_empty_snapshot_has_zero_hit_rate(self):
        cache = LRUCacheIndex(InMemoryIndex(), capacity=4)
        assert cache.stats.hit_rate == 0.0


class _BatchCountingIndex(InMemoryIndex):
    """Counts how many batched calls reach the backing index."""

    def __init__(self):
        super().__init__()
        self.batch_calls = 0
        self.batch_sizes = []

    def lookup_and_insert_many(self, fingerprints, metadata=None):
        fps = list(fingerprints)
        self.batch_calls += 1
        self.batch_sizes.append(len(fps))
        return super().lookup_and_insert_many(fps, metadata=metadata)


class TestBatchedCacheLookups:
    def test_results_match_per_key_loop(self):
        plain = InMemoryIndex()
        cached = LRUCacheIndex(InMemoryIndex(), capacity=8)
        batch = ["a", "b", "a", "c", "b", "d"]
        expected = [plain.lookup_and_insert(fp) for fp in batch]
        assert cached.lookup_and_insert_many(batch) == expected

    def test_misses_travel_in_one_backing_batch(self):
        backing = _BatchCountingIndex()
        cached = LRUCacheIndex(backing, capacity=8)
        cached.lookup_and_insert_many(["a", "b", "c"])  # all misses
        assert backing.batch_calls == 1
        assert backing.batch_sizes == [3]

    def test_cache_hits_are_answered_without_the_backing(self):
        backing = _BatchCountingIndex()
        cached = LRUCacheIndex(backing, capacity=8)
        cached.lookup_and_insert_many(["a", "b"])
        results = cached.lookup_and_insert_many(["a", "c", "b"])
        assert results == [False, True, False]
        assert backing.batch_calls == 2
        assert backing.batch_sizes == [2, 1]  # only "c" crossed over
        assert cached.stats.hits == 2

    def test_all_hits_send_an_empty_batch_downstream(self):
        backing = _BatchCountingIndex()
        cached = LRUCacheIndex(backing, capacity=8)
        cached.lookup_and_insert_many(["a", "b"])
        assert cached.lookup_and_insert_many(["b", "a"]) == [False, False]
        assert backing.batch_sizes[-1] == 0

    def test_intra_batch_repeat_is_new_once_then_duplicate(self):
        cached = LRUCacheIndex(InMemoryIndex(), capacity=8)
        assert cached.lookup_and_insert_many(["x", "x", "x"]) == [True, False, False]

    def test_intra_batch_repeat_evicted_counts_as_miss(self):
        """Regression for the accounting divergence this PR fixes: with
        capacity 1 the batch [a, b, a] admits b over a, so the second 'a'
        must be a miss (exactly as the per-key loop counts it)."""
        cached = LRUCacheIndex(InMemoryIndex(), capacity=1)
        assert cached.lookup_and_insert_many(["a", "b", "a"]) == [True, True, False]
        assert cached.stats.hits == 0
        assert cached.stats.misses == 3
        assert cached.stats.evictions == 2

    def test_cached_key_evicted_by_earlier_batch_member(self):
        # 'b' is cached, but 'a' (a miss, admitted first) evicts it before
        # its probe — so 'b' must count as a miss, not a hit.
        cached = LRUCacheIndex(InMemoryIndex(), capacity=1)
        cached.lookup_and_insert("b")
        assert cached.lookup_and_insert_many(["a", "b"]) == [True, False]
        assert cached.stats.hits == 0
        assert list(cached._cache) == ["b"]

    def test_failed_backing_batch_leaves_cache_untouched(self):
        """Deferred mutation: if the remote batch fails, no key may look
        cached afterwards (a phantom hit would silently drop a chunk)."""

        class _ExplodingIndex(InMemoryIndex):
            def lookup_and_insert_many(self, fingerprints, metadata=None):
                raise ConnectionError("ring down")

        cached = LRUCacheIndex(_ExplodingIndex(), capacity=8)
        with pytest.raises(ConnectionError):
            cached.lookup_and_insert_many(["a", "b"])
        assert cached.cached_entries == 0
        assert cached.stats.misses == 0  # nothing was accounted either

    def test_model_guided_cache_batches_too(self):
        backing = _BatchCountingIndex()
        cached = ModelGuidedCacheIndex(
            backing, scorer=lambda fp: 1.0 if fp < "c" else 0.0, capacity=8
        )
        assert cached.lookup_and_insert_many(["a", "d"]) == [True, True]
        assert cached.stats.rejections == 1  # "d" scored cold, not admitted
        # second round: hot "a" answers from the cache, cold "d" crosses
        # back to the backing — still as one batch.
        assert cached.lookup_and_insert_many(["a", "d"]) == [False, False]
        assert backing.batch_calls == 2
        assert backing.batch_sizes == [2, 1]


class TestBatchedMatchesLoopedProperty:
    """Seeded-random equivalence check: for any batch sequence (repeats,
    tiny capacities, admission rejections), the batched path must produce
    byte-identical results, stats, and cache state to the per-key loop."""

    def _stats_tuple(self, cache):
        s = cache.stats
        return (s.hits, s.misses, s.admissions, s.rejections, s.evictions)

    def _pair(self, capacity, guided, seed):
        import random

        if guided:
            # Deterministic scorer keyed on the fingerprint text, ~40% cold.
            scorer = lambda fp: 1.0 if (int(fp[1:]) % 5) < 3 else 0.0
            make = lambda: ModelGuidedCacheIndex(
                InMemoryIndex(), scorer=scorer, capacity=capacity
            )
        else:
            make = lambda: LRUCacheIndex(InMemoryIndex(), capacity=capacity)
        return make(), make(), random.Random(seed)

    def _check(self, capacity, guided, seed, rounds=30):
        batched, looped, rng = self._pair(capacity, guided, seed)
        universe = [f"f{i}" for i in range(12)]  # small -> lots of repeats
        for _ in range(rounds):
            batch = [rng.choice(universe) for _ in range(rng.randrange(1, 9))]
            got = batched.lookup_and_insert_many(list(batch))
            want = [looped.lookup_and_insert(fp) for fp in batch]
            assert got == want, (capacity, guided, seed, batch)
            assert self._stats_tuple(batched) == self._stats_tuple(looped), (
                capacity, guided, seed, batch,
            )
            # Cache contents AND recency order must agree.
            assert list(batched._cache) == list(looped._cache), (
                capacity, guided, seed, batch,
            )

    def test_lru_random_batches(self):
        for capacity in (1, 2, 3, 8):
            for seed in range(8):
                self._check(capacity, guided=False, seed=seed)

    def test_model_guided_random_batches(self):
        for capacity in (1, 2, 3, 8):
            for seed in range(8):
                self._check(capacity, guided=True, seed=seed)
