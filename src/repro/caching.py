"""Bounded LRU caching with observable statistics.

Several hot paths memoise aggressively -- the byte decoder, the Shadow
Branch Decoder, the workload cache -- and long sweeps (hundreds of
(workload, config) cells) previously let those memos grow without limit.
:class:`LRUCache` is the shared bounded replacement: a dict with
least-recently-used eviction, hit/miss/eviction counters, and the small
mapping surface the memo call-sites need.

Python dicts preserve insertion order, so recency is tracked by deleting
and re-inserting a key on every touch; both operations are O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterator

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache's counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int | None

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def render(self, label: str = "cache") -> str:
        bound = "unbounded" if self.maxsize is None else str(self.maxsize)
        return (f"{label}: {self.hits} hits / {self.misses} misses "
                f"({self.hit_rate:.1%}), {self.evictions} evictions, "
                f"size {self.size}/{bound}")


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``maxsize=None`` disables eviction (counters still work), which lets
    call-sites expose one knob for both bounded and unbounded modes.
    ``maxsize=0`` is a degenerate but valid cache: every store is
    immediately evicted and every get misses, with the same counter
    accounting as any other capacity (so sweeping a cache size down to
    zero needs no special-casing at call sites).

    Counter invariants, at every capacity and under touch-on-hit
    re-ordering (property-tested in tests/test_caching.py):
    ``hits + misses == gets``,
    ``evictions == new-key stores - popped keys - size``,
    and ``size <= maxsize``.
    """

    COUNTERS = ("hits", "misses", "evictions")

    def __init__(self, maxsize: int | None = None):
        if maxsize is not None and maxsize < 0:
            raise ValueError("maxsize must be non-negative or None")
        self.maxsize = maxsize
        self._data: dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- mapping surface used by the memo call-sites --------------------

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Counted, recency-touching lookup."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        # Re-insert to mark as most recently used.
        del self._data[key]
        self._data[key] = value
        return value

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self._data.pop(key, None)
        self._data[key] = value
        if self.maxsize is not None and len(self._data) > self.maxsize:
            del self._data[next(iter(self._data))]
            self.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        """Uncounted, recency-neutral membership probe."""
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Hashable]:
        """Keys, least- to most-recently used."""
        return iter(self._data)

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Uncounted lookup that does not touch recency."""
        return self._data.get(key, default)

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Uncounted removal: not an eviction."""
        return self._data.pop(key, default)

    def state(self, base: float) -> tuple:
        """Keys, least- to most-recently used: the eviction order.

        Values are left out: every memo call-site stores a pure function
        of its key, so key order is the whole behavioural state.
        """
        return tuple(self._data)

    def clear(self) -> None:
        """Drop all entries; counters are preserved."""
        self._data.clear()

    @property
    def stats(self) -> CacheStats:
        return CacheStats(hits=self.hits, misses=self.misses,
                          evictions=self.evictions, size=len(self._data),
                          maxsize=self.maxsize)
