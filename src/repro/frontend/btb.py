"""Branch Target Buffer.

Set-associative with true-LRU and *partial tags*, matching the paper's
Figure 12 entry layout (10-bit tag, valid, per-way LRU, 2-bit type, 64-bit
target = 78 bits/entry; 8K entries x 78b = 78KB).  Partial tags mean
aliasing can return a wrong entry -- modelled honestly: the caller
compares the provided target against decode-time truth and pays a resteer
when an aliased entry misleads the front-end.

An ``infinite`` mode (fully associative, unbounded, full tags) provides
the paper's upper-bound configuration in Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.branch import BranchKind


@dataclass(slots=True)
class BTBEntry:
    """One BTB entry: branch kind plus last-known target."""

    tag: int
    kind: BranchKind
    target: int | None


class BranchTargetBuffer:
    """Set-associative BTB indexed by branch PC."""

    COUNTERS = ("lookups", "hits", "false_hits_detected")

    def __init__(self, entries: int = 8192, assoc: int = 4,
                 tag_bits: int = 10, entry_bits: int = 78,
                 infinite: bool = False):
        if entries <= 0 or assoc <= 0:
            raise ValueError("entries and assoc must be positive")
        self.assoc = assoc
        self.tag_bits = tag_bits
        self.entry_bits = entry_bits
        self.infinite = infinite
        self.n_sets = max(1, (entries + assoc - 1) // assoc)
        self.entries = self.n_sets * assoc
        # Per set: insertion-ordered dict {tag: BTBEntry}; last = MRU.
        self._sets: list[dict[int, BTBEntry]] = [dict() for _ in range(self.n_sets)]
        self._full: dict[int, BTBEntry] = {}
        self.lookups = 0
        self.hits = 0
        self.false_hits_detected = 0

    # ------------------------------------------------------------------

    def _index_tag(self, pc: int) -> tuple[int, int]:
        # Fold higher PC bits into the set index (as real BTBs do) so
        # stride-aligned branch PCs spread across sets instead of
        # conflicting in a handful of them.
        word = pc >> 1
        index = (word ^ (word >> 11) ^ (word >> 23)) % self.n_sets
        tag = (word // self.n_sets) & ((1 << self.tag_bits) - 1)
        return index, tag

    def lookup(self, pc: int) -> BTBEntry | None:
        """Probe for ``pc``; updates LRU on hit."""
        self.lookups += 1
        if self.infinite:
            entry = self._full.get(pc)
            if entry is not None:
                self.hits += 1
            return entry
        index, tag = self._index_tag(pc)
        way = self._sets[index]
        entry = way.get(tag)
        if entry is None:
            return None
        # Move to MRU position.
        del way[tag]
        way[tag] = entry
        self.hits += 1
        return entry

    def insert(self, pc: int, kind: BranchKind, target: int | None) -> None:
        """Insert or update the entry for ``pc`` (MRU position).

        Updates mutate the resident entry in place -- every decoded
        branch re-inserts on commit, so reallocating an entry per record
        was a measurable share of the hot loop.
        """
        if self.infinite:
            entry = self._full.get(pc)
            if entry is not None:
                entry.kind = kind
                entry.target = target
                return
            self._full[pc] = BTBEntry(tag=pc, kind=kind, target=target)
            return
        index, tag = self._index_tag(pc)
        way = self._sets[index]
        entry = way.pop(tag, None)
        if entry is not None:
            entry.kind = kind
            entry.target = target
        else:
            if len(way) >= self.assoc:
                # Evict LRU (first inserted).
                way.pop(next(iter(way)))
            entry = BTBEntry(tag=tag, kind=kind, target=target)
        way[tag] = entry

    def contains(self, pc: int) -> bool:
        """Presence probe without LRU side effects (for tests/metrics)."""
        if self.infinite:
            return pc in self._full
        index, tag = self._index_tag(pc)
        return tag in self._sets[index]

    def occupancy(self) -> int:
        if self.infinite:
            return len(self._full)
        return sum(len(way) for way in self._sets)

    def state(self, base: float) -> list:
        """``(set, tag, kind, target)`` per entry, each set in LRU order,
        then the infinite mode's ``(pc, kind, target)`` by PC.  Holds no
        timestamps.  (``_value_`` is the plain attribute behind the
        slower ``BranchKind.value`` property.)"""
        return ([(index, tag, e.kind._value_, e.target)
                 for index, way in enumerate(self._sets)
                 for tag, e in way.items()]
                + sorted((pc, e.kind._value_, e.target)
                         for pc, e in self._full.items()))

    @property
    def size_bytes(self) -> float:
        return self.entries * self.entry_bits / 8

    def flush(self) -> None:
        for way in self._sets:
            way.clear()
        self._full.clear()

    def register_metrics(self, scope) -> None:
        """Expose counters as lazily-sampled gauges (repro.obs)."""
        for name in self.COUNTERS:
            scope.gauge(name, lambda name=name: getattr(self, name))
        scope.gauge("occupancy", self.occupancy)
        scope.gauge("entries", lambda: self.entries)
        scope.gauge("infinite", lambda: int(self.infinite))
