"""Workload cache memoisation."""

from repro.workloads.cache import WorkloadCache
from tests.workloads.records import as_records


class TestWorkloadCache:
    def test_program_memoised(self):
        cache = WorkloadCache()
        first = cache.program("noop", seed=1)
        second = cache.program("noop", seed=1)
        assert first is second

    def test_seed_separates(self):
        cache = WorkloadCache()
        assert cache.program("noop", seed=1) is not cache.program(
            "noop", seed=2)

    def test_bolted_separates(self):
        cache = WorkloadCache()
        plain = cache.program("noop", seed=1)
        bolted = cache.program("noop", seed=1, bolted=True)
        assert plain is not bolted
        assert bolted.name.endswith("+bolt")

    def test_trace_memoised(self):
        cache = WorkloadCache()
        first = cache.trace("noop", 2_000, seed=1)
        second = cache.trace("noop", 2_000, seed=1)
        assert first is second

    def test_trace_length_separates(self):
        cache = WorkloadCache()
        assert cache.trace("noop", 1_000) is not cache.trace("noop", 2_000)

    def test_trace_eviction(self):
        cache = WorkloadCache(max_traces=2)
        first = cache.compiled("noop", 1_000)
        cache.compiled("noop", 1_100)
        cache.compiled("noop", 1_200)  # evicts the 1_000 trace
        again = cache.compiled("noop", 1_000)
        assert again is not first
        # deterministic regeneration
        assert as_records(again) == as_records(first)

    def test_trace_is_compiled(self):
        """``trace()`` is the memoised compiled trace itself: one cache,
        one entry per key."""
        cache = WorkloadCache()
        first = cache.trace("noop", 1_000, seed=1)
        assert cache.compiled("noop", 1_000, seed=1) is first
        assert set(cache.stats()) == {"programs", "compiled"}
        assert cache.stats()["compiled"].size == 1

    def test_clear(self):
        cache = WorkloadCache()
        first = cache.program("noop")
        cache.clear()
        assert cache.program("noop") is not first


class TestWorkloadCacheStats:
    def test_program_hits_and_misses(self):
        cache = WorkloadCache()
        cache.program("noop", seed=1)
        cache.program("noop", seed=1)
        cache.program("noop", seed=2)
        stats = cache.stats()["programs"]
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.size == 2

    def test_trace_hits_misses_evictions(self):
        cache = WorkloadCache(max_traces=2)
        cache.trace("noop", 1_000)
        cache.trace("noop", 1_000)  # hit
        cache.trace("noop", 1_100)
        cache.trace("noop", 1_200)  # evicts one
        stats = cache.stats()["compiled"]
        assert stats.hits == 1
        assert stats.misses == 3
        assert stats.evictions == 1
        assert stats.size == 2

    def test_trace_eviction_is_lru_not_fifo(self):
        """A hit must refresh recency: after touching the oldest trace,
        inserting a new one evicts the *other* (least recently used)
        trace, not the oldest-inserted one."""
        cache = WorkloadCache(max_traces=2)
        first = cache.trace("noop", 1_000)
        cache.trace("noop", 1_100)
        assert cache.trace("noop", 1_000) is first  # touch on hit
        cache.trace("noop", 1_200)  # must evict the 1_100 trace
        assert cache.trace("noop", 1_000) is first  # survived eviction
        assert cache.stats()["compiled"].evictions == 1

    def test_clear_preserves_counters(self):
        cache = WorkloadCache()
        cache.program("noop")
        cache.clear()
        assert cache.stats()["programs"].misses == 1
        assert cache.stats()["programs"].size == 0
