"""LRUCache counter-consistency tests.

The decode memos and workload caches all ride on ``repro.caching``, so
its counters feed the observability snapshots directly; drift here would
show up as phantom invariant violations.  The property test drives
random op sequences at the degenerate capacities (0, 1) and under
touch-on-hit re-ordering and checks the documented counter identities
after every operation.
"""

import random

import pytest

from repro.caching import LRUCache


class TestCapacityZero:
    # Regression: LRUCache(maxsize=0) used to raise ValueError, so a
    # cache-size sweep could not include the "no cache" endpoint.

    def test_constructible(self):
        cache = LRUCache(maxsize=0)
        assert len(cache) == 0

    def test_store_is_immediately_evicted(self):
        cache = LRUCache(maxsize=0)
        cache["a"] = 1
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.evictions == 1
        assert cache.misses == 1
        assert cache.hits == 0

    def test_negative_still_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=-1)


class TestCapacityOne:
    def test_eviction_counts(self):
        cache = LRUCache(maxsize=1)
        cache["a"] = 1
        cache["b"] = 2  # evicts a
        assert cache.evictions == 1
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert (cache.hits, cache.misses) == (1, 1)

    def test_update_in_place_is_not_an_eviction(self):
        cache = LRUCache(maxsize=1)
        cache["a"] = 1
        cache["a"] = 2
        assert cache.evictions == 0
        assert cache.get("a") == 2


class TestTouchOnHit:
    def test_get_refreshes_recency(self):
        cache = LRUCache(maxsize=2)
        cache["a"] = 1
        cache["b"] = 2
        assert cache.get("a") == 1     # a becomes MRU
        cache["c"] = 3                 # evicts b, not a
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.evictions == 1

    def test_peek_and_contains_do_not_count_or_touch(self):
        cache = LRUCache(maxsize=2)
        cache["a"] = 1
        cache["b"] = 2
        assert cache.peek("a") == 1
        assert "a" in cache
        cache["c"] = 3                 # a is still LRU: evicted
        assert cache.peek("a") is None
        assert (cache.hits, cache.misses) == (0, 0)


@pytest.mark.parametrize("maxsize", [0, 1, 2, 5, None])
def test_counter_invariants_hold_under_random_ops(maxsize):
    """Property: after any op sequence, the documented identities hold.

    * ``hits + misses == number of get() calls``
    * ``evictions == new-key stores - live entries`` (bounded caches)
    * ``len(cache) <= maxsize``
    """
    rng = random.Random(maxsize if maxsize is not None else 99)
    cache = LRUCache(maxsize=maxsize)
    shadow: dict = {}           # reference model (unbounded, same recency)
    gets = 0
    new_key_stores = 0
    keys = [f"k{i}" for i in range(8)]

    for _ in range(3000):
        key = rng.choice(keys)
        op = rng.random()
        if op < 0.45:
            gets += 1
            value = cache.get(key)
            if value is not None:
                assert value == shadow[key]
                # Touch in the shadow model too.
                shadow[key] = shadow.pop(key)
        elif op < 0.9:
            if not cache.__contains__(key):
                new_key_stores += 1
            cache[key] = rng.randrange(1, 1000)
            shadow.pop(key, None)
            shadow[key] = cache.peek(key)
            if maxsize is not None:
                while len(shadow) > maxsize:
                    oldest = next(iter(shadow))
                    del shadow[oldest]
        elif op < 0.95:
            cache.peek(key)
        else:
            _ = key in cache

        assert cache.hits + cache.misses == gets
        if maxsize is not None:
            assert len(cache) <= maxsize
            assert cache.evictions == new_key_stores - len(cache)
        else:
            assert cache.evictions == 0
        # Contents must match the reference model exactly.
        assert dict((k, cache.peek(k)) for k in cache) == shadow
