"""Shadow Branch Buffer (Section 4.2, Figure 12).

Two set-associative structures accessed in parallel with the BTB:

* **U-SBB** stores direct unconditional branches and calls.  An entry is
  78 bits: 10b tag + valid + LRU + retired bit + 64b target.
* **R-SBB** stores returns.  An entry is 20 bits: 10b tag + valid + LRU +
  retired bit + 6b in-line offset.  Returns need no target (the RAS
  provides it), which is why the paper gives them their own, far denser
  structure -- the default 12.25KB budget buys 768 U entries but 2024 R
  entries.

Replacement (Section 4.3): LRU, except entries whose *retired* bit is
clear are evicted first.  The retired bit is set when a branch target
provided by the SBB commits, so never-confirmed ("bogus") entries are the
first to go and useful entries persist.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frontend.config import SkiaConfig


@dataclass(slots=True)
class SBBEntry:
    """One SBB entry; ``payload`` is the target (U) or line offset (R)."""

    tag: int
    payload: int
    retired: bool = False


class SBBStructure:
    """One of the two SBB halves: set-associative, LRU + retired-first."""

    COUNTERS = ("lookups", "hits", "insertions", "evictions_bogus_first",
                "evictions_lru", "retired_marks")

    def __init__(self, entries: int, assoc: int, tag_bits: int,
                 entry_bits: int, name: str, use_retired_bit: bool = True):
        if entries and entries < assoc:
            raise ValueError(f"{name}: entries {entries} < assoc {assoc}")
        self.name = name
        self.use_retired_bit = use_retired_bit
        self.assoc = assoc
        self.tag_bits = tag_bits
        self.entry_bits = entry_bits
        # entries == 0 builds a disabled structure (used by the Figure 17
        # U/R-split sweep endpoints).
        self.n_sets = entries // assoc
        self.entries = self.n_sets * assoc
        # Per set: insertion-ordered dict {tag: SBBEntry}; last = MRU.
        self._sets: list[dict[int, SBBEntry]] = [dict() for _ in range(self.n_sets)]
        self.insertions = 0
        self.evictions_bogus_first = 0
        self.evictions_lru = 0
        self.lookups = 0
        self.hits = 0
        self.retired_marks = 0

    def _index_tag(self, pc: int) -> tuple[int, int]:
        # Same folded indexing as the BTB (see btb.py): spreads
        # stride-aligned PCs across sets.
        word = pc >> 1
        index = (word ^ (word >> 11) ^ (word >> 23)) % self.n_sets
        tag = (word // self.n_sets) & ((1 << self.tag_bits) - 1)
        return index, tag

    def lookup(self, pc: int) -> SBBEntry | None:
        self.lookups += 1
        if not self.n_sets:
            return None
        index, tag = self._index_tag(pc)
        way = self._sets[index]
        entry = way.get(tag)
        if entry is None:
            return None
        del way[tag]
        way[tag] = entry  # move to MRU
        self.hits += 1
        return entry

    def insert(self, pc: int, payload: int) -> None:
        if not self.n_sets:
            return
        index, tag = self._index_tag(pc)
        way = self._sets[index]
        self.insertions += 1
        existing = way.get(tag)
        if existing is not None:
            # Refresh payload, keep the retired bit, move to MRU.
            del way[tag]
            existing.payload = payload
            way[tag] = existing
            return
        if len(way) >= self.assoc:
            self._evict(way)
        way[tag] = SBBEntry(tag=tag, payload=payload)

    def _evict(self, way: dict[int, SBBEntry]) -> None:
        """Evict the LRU non-retired entry; fall back to plain LRU."""
        if self.use_retired_bit:
            for tag, entry in way.items():  # iteration order = LRU -> MRU
                if not entry.retired:
                    del way[tag]
                    self.evictions_bogus_first += 1
                    return
        del way[next(iter(way))]
        self.evictions_lru += 1

    def mark_retired(self, pc: int) -> bool:
        """Set the retired bit without perturbing LRU order."""
        if not self.n_sets:
            return False
        index, tag = self._index_tag(pc)
        entry = self._sets[index].get(tag)
        if entry is None:
            return False
        entry.retired = True
        self.retired_marks += 1
        return True

    def occupancy(self) -> int:
        return sum(len(way) for way in self._sets)

    def state(self, base: float) -> list:
        """``(set, tag, payload, retired)`` per entry, each set in LRU
        order.  Holds no timestamps."""
        return [(index, tag, e.payload, e.retired)
                for index, way in enumerate(self._sets)
                for tag, e in way.items()]

    @property
    def size_bytes(self) -> float:
        return self.entries * self.entry_bits / 8

    def flush(self) -> None:
        for way in self._sets:
            way.clear()

    def register_metrics(self, scope) -> None:
        """Expose counters as lazily-sampled gauges (repro.obs)."""
        for name in self.COUNTERS:
            scope.gauge(name, lambda name=name: getattr(self, name))
        scope.gauge("occupancy", self.occupancy)
        scope.gauge("entries", lambda: self.entries)


class ShadowBranchBuffer:
    """The U-SBB + R-SBB pair."""

    def __init__(self, config: SkiaConfig):
        self.config = config
        self.usbb = SBBStructure(config.usbb_entries, config.usbb_assoc,
                                 config.usbb_tag_bits, config.usbb_entry_bits,
                                 name="U-SBB",
                                 use_retired_bit=config.use_retired_bit)
        self.rsbb = SBBStructure(config.rsbb_entries, config.rsbb_assoc,
                                 config.rsbb_tag_bits, config.rsbb_entry_bits,
                                 name="R-SBB",
                                 use_retired_bit=config.use_retired_bit)

    def insert_unconditional(self, pc: int, target: int) -> None:
        self.usbb.insert(pc, target)

    def insert_return(self, pc: int, line_size: int = 64) -> None:
        self.rsbb.insert(pc, pc % line_size)

    def lookup(self, pc: int) -> tuple[str, SBBEntry] | None:
        """Parallel probe of both halves; U-SBB wins a double hit."""
        entry = self.usbb.lookup(pc)
        if entry is not None:
            return "u", entry
        entry = self.rsbb.lookup(pc)
        if entry is not None:
            return "r", entry
        return None

    def mark_retired(self, pc: int, which: str) -> bool:
        structure = self.usbb if which == "u" else self.rsbb
        return structure.mark_retired(pc)

    @property
    def size_bytes(self) -> float:
        return self.usbb.size_bytes + self.rsbb.size_bytes

    @property
    def size_kib(self) -> float:
        return self.size_bytes / 1024

    def register_metrics(self, scope) -> None:
        """Register both halves as ``<scope>.u`` / ``<scope>.r``."""
        self.usbb.register_metrics(scope.scope("u"))
        self.rsbb.register_metrics(scope.scope("r"))
