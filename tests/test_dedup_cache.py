"""Tests for the dedup cache layers (LRU and model-guided admission)."""

import random
from collections import OrderedDict

import pytest

from repro.dedup.cache import LRUCacheIndex, ModelGuidedCacheIndex
from repro.dedup.index import InMemoryIndex
from repro.kvstore.store import DistributedKVStore
from repro.obs import series
from repro.system.agent import RingIndex
from tests.lru_oracle import (
    OracleLRUCacheIndex,
    OracleModelGuidedCacheIndex,
    copy_predicted_misses,
)


def claim(index, fp: str) -> bool:
    """Claim one fingerprint as a batch of one."""
    return index.lookup_and_insert_many([fp])[0]


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
            assert claim(plain, fp) == claim(cached, fp)
        assert len(plain) == len(cached)

    def test_hit_counts(self):
        cache = LRUCacheIndex(InMemoryIndex(), capacity=8)
        claim(cache, "x")  # miss, admitted
        claim(cache, "x")  # hit
        claim(cache, "x")  # hit
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_eviction_at_capacity(self):
        cache = LRUCacheIndex(InMemoryIndex(), capacity=2)
        for fp in ("a", "b", "c"):
            claim(cache, fp)
        assert cache.cached_entries == 2
        assert cache.stats.evictions == 1

    def test_lru_order(self):
        cache = LRUCacheIndex(InMemoryIndex(), capacity=2)
        claim(cache, "a")
        claim(cache, "b")
        claim(cache, "a")  # refresh a
        claim(cache, "c")  # evicts b, not a
        cache.stats.hits = cache.stats.misses = 0
        claim(cache, "a")
        assert cache.stats.hits == 1  # a stayed cached
        claim(cache, "b")
        assert cache.stats.misses == 1  # b was evicted (but still a dup!)

    def test_evicted_entry_still_duplicate_via_backing(self):
        cache = LRUCacheIndex(InMemoryIndex(), capacity=1)
        claim(cache, "a")
        claim(cache, "b")  # evicts a from cache
        assert claim(cache, "a") is False  # backing remembers

    def test_len_and_fingerprints_from_backing(self):
        cache = LRUCacheIndex(InMemoryIndex(), capacity=1)
        cache.lookup_and_insert_many(["a", "b", "c"])
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
        claim(cache, "hot-1")
        claim(cache, "cold-1")
        assert cache.cached_entries == 1
        assert cache.stats.rejections == 1
        # Cold entries still dedup correctly through the backing index.
        assert claim(cache, "cold-1") is False

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
                claim(cache, f"hot-{i}")
            for i in range(100):  # churn
                claim(cache, f"cold-{i}")
            cache.stats.hits = cache.stats.misses = 0
            for i in range(4):
                claim(cache, f"hot-{i}")
        assert guided.stats.hits == 4  # all hot entries still cached
        assert lru.stats.hits == 0  # churned out

    def test_semantics_still_exact(self):
        plain = InMemoryIndex()
        guided = ModelGuidedCacheIndex(
            InMemoryIndex(), scorer=lambda fp: 0.0, capacity=4
        )
        for fp in ["a", "b", "a", "c", "a"]:
            assert claim(plain, fp) == claim(guided, fp)


class TestCacheStatsSnapshot:
    def test_snapshot_uses_canonical_metric_names(self):
        cache = LRUCacheIndex(InMemoryIndex(), capacity=4)
        claim(cache, "x")  # miss, admitted
        claim(cache, "x")  # hit
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
        expected = [claim(plain, fp) for fp in batch]
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

    def test_all_hits_make_no_backing_call(self):
        backing = _BatchCountingIndex()
        cached = LRUCacheIndex(backing, capacity=8)
        cached.lookup_and_insert_many(["a", "b"])
        assert cached.lookup_and_insert_many(["b", "a"]) == [False, False]
        assert cached.lookup_and_insert_many([]) == []
        assert backing.batch_sizes == [2]

    def test_an_all_hit_batch_is_not_a_ring_round(self):
        """A batch answered wholly by the cache sends nothing, so neither
        the agent nor the store counts a round for it."""
        ring = RingIndex(DistributedKVStore(["a", "b", "c"]), local_node="a")
        cached = LRUCacheIndex(ring, capacity=8)
        for _ in range(2):
            cached.lookup_and_insert_many(["x", "y"])
        assert ring.lookups.batch_rounds == ring.store.stats.batch_rounds == 1

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
        claim(cached, "b")
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
    """Seeded-random equivalence checks over batch sequences with repeats,
    tiny capacities and admission rejections: the batched path must leave
    identical results, stats and cache state (contents *and* recency
    order) to the same stream claimed in batches of one, and must predict
    exactly the misses of the retired copy-based simulation."""

    def _make(self, capacity, guided, oracle=False):
        if guided:
            # Deterministic scorer keyed on the fingerprint text, ~40% cold.
            cls = OracleModelGuidedCacheIndex if oracle else ModelGuidedCacheIndex
            scorer = lambda fp: 1.0 if (int(fp[1:]) % 5) < 3 else 0.0
            return cls(InMemoryIndex(), scorer=scorer, capacity=capacity)
        cls = OracleLRUCacheIndex if oracle else LRUCacheIndex
        return cls(InMemoryIndex(), capacity=capacity)

    def _state(self, cache):
        return series(cache.stats), list(cache._cache)

    def _check(self, capacity, guided, seed, rounds=30):
        batched = self._make(capacity, guided)
        one_by_one = self._make(capacity, guided)
        oracle = self._make(capacity, guided, oracle=True)
        rng = random.Random(seed)
        universe = [f"f{i}" for i in range(12)]  # small -> lots of repeats
        for _ in range(rounds):
            batch = [rng.choice(universe) for _ in range(rng.randrange(1, 9))]
            assert batched._predict_misses(batch) == copy_predicted_misses(batched, batch)
            got = batched.lookup_and_insert_many(list(batch))
            assert got == [claim(one_by_one, fp) for fp in batch], (capacity, seed, batch)
            assert got == oracle.lookup_and_insert_many(batch)
            assert self._state(batched) == self._state(one_by_one) == self._state(oracle), (
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

    def test_overlay_matches_the_copy_oracle_on_long_traces(self):
        rng = random.Random(31)
        for trial in range(300):
            capacity = rng.choice((1, 2, 5, 16, 64))
            cache = self._make(capacity, guided=trial % 2 == 1)
            oracle = self._make(capacity, guided=trial % 2 == 1, oracle=True)
            universe = [f"f{i}" for i in range(rng.choice((4, 40, 200)))]
            for _ in range(10):
                batch = [rng.choice(universe) for _ in range(rng.randrange(0, 40))]
                assert cache.lookup_and_insert_many(batch) == oracle.lookup_and_insert_many(batch)
                assert self._state(cache) == self._state(oracle)

    def test_a_batch_never_copies_the_cache(self):
        """A full 4 096-entry cache: the prediction must not walk or copy
        the whole cache to serve a batch of one."""

        class _NoCopy(OrderedDict):
            def copy(self):
                raise AssertionError("the cache was copied to serve a batch")

        cache = LRUCacheIndex(InMemoryIndex(), capacity=4096)
        cache.lookup_and_insert_many([f"f{i}" for i in range(4096)])
        cache._cache = _NoCopy(cache._cache)
        assert cache.lookup_and_insert_many(["f0"]) == [False]
        assert cache.lookup_and_insert_many(["new"]) == [True]
        # "new" evicted f1, so f1 misses and is re-admitted after g.
        assert cache.lookup_and_insert_many(["f0", "g", "f1", "g"]) == [False, True, False, False]
        assert (cache.stats.evictions, list(cache._cache)[-3:]) == (3, ["f0", "f1", "g"])
