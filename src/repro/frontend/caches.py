"""Instruction cache hierarchy (L1-I / L2 / L3 / memory).

Line-granular, set-associative, true-LRU.  The L1-I tracks per-line
*ready times* so FDIP prefetches issued ahead of fetch genuinely hide
latency: a prefetch started at cycle T for a line with a 14-cycle L2 hit
is ready at T+14, and a demand fetch arriving later than that stalls zero
cycles.  Wrong-path fills are tagged so pollution is measurable.

Only instruction lines flow through this hierarchy (the simulated
workloads exercise the front-end; data traffic is out of scope, as it is
for the paper's front-end study -- see DESIGN.md substitutions).
"""

from __future__ import annotations

from repro.frontend.config import FrontEndConfig


def relative_time(value: float, base: float) -> float | None:
    """A timestamp relative to ``base``; the past collapses to one class.

    Ready times and FTQ completions at or before ``base`` are
    behaviourally interchangeable (every consumer takes
    ``max(value, now)`` with ``now >= base``, or drains them before
    reading), so they all map to ``None``.
    """
    return value - base if value > base else None


def shifted_time(value: float, base: float, shift: float) -> float:
    """``value`` moved ``shift`` later if it lies after ``base``.

    The inverse view of :func:`relative_time`: only future-dated
    timestamps carry behaviour, so only they move with the clocks.
    """
    return value + shift if value > base else value


class SetAssociativeCache:
    """One cache level; stores line addresses with LRU replacement."""

    COUNTERS = ("accesses", "misses")

    def __init__(self, size_bytes: int, assoc: int, line_size: int,
                 name: str = "cache"):
        if size_bytes % (assoc * line_size) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"assoc*line ({assoc}x{line_size})")
        self.name = name
        self.line_size = line_size
        self.assoc = assoc
        self.n_sets = size_bytes // (assoc * line_size)
        # Per set: insertion-ordered dict {line_addr: ready_time}.
        self._sets: list[dict[int, float]] = [dict() for _ in range(self.n_sets)]
        self.accesses = 0
        self.misses = 0

    def _set_for(self, line_addr: int) -> dict[int, float]:
        return self._sets[(line_addr // self.line_size) % self.n_sets]

    def probe(self, line_addr: int) -> bool:
        """Presence check without stats or LRU update."""
        return line_addr in self._set_for(line_addr)

    def lookup(self, line_addr: int) -> float | None:
        """Access: returns the line's ready time on hit (LRU updated)."""
        self.accesses += 1
        way = self._set_for(line_addr)
        ready = way.get(line_addr)
        if ready is None:
            self.misses += 1
            return None
        del way[line_addr]
        way[line_addr] = ready
        return ready

    def fill(self, line_addr: int, ready_time: float) -> int | None:
        """Insert a line; returns the evicted line address, if any."""
        way = self._set_for(line_addr)
        evicted = None
        if line_addr in way:
            # Refill of an in-flight/resident line keeps the earlier
            # ready time (the first fill wins the race).
            ready_time = min(ready_time, way[line_addr])
            del way[line_addr]
        elif len(way) >= self.assoc:
            evicted = next(iter(way))
            del way[evicted]
        way[line_addr] = ready_time
        return evicted

    def occupancy(self) -> int:
        return sum(len(way) for way in self._sets)

    def state(self, base: float) -> list:
        """``(line, ready time relative to base)`` per line, each set in
        LRU order (a line's address fixes its set)."""
        return [(line, relative_time(ready, base))
                for way in self._sets for line, ready in way.items()]

    def shift_ready_times(self, base: float, shift: float) -> None:
        """Move every ready time after ``base`` ``shift`` later.

        In-place value updates keep each set's LRU (insertion) order.
        """
        for way in self._sets:
            for line, ready in way.items():
                way[line] = shifted_time(ready, base, shift)

    def flush(self) -> None:
        for way in self._sets:
            way.clear()


class CacheHierarchy:
    """L1-I backed by L2, L3 and memory.

    ``access`` is the single entry point: given a line and the cycle the
    request starts, it returns ``(l1_hit, ready_time, fill_level)`` and
    performs all fills.  ``fill_level`` is 1 on an L1 hit, else the level
    that served the miss (2, 3, or 4 for memory).
    """

    COUNTERS = ("wrong_path_fills",)

    def __init__(self, config: FrontEndConfig):
        line = config.line_size
        self.l1i = SetAssociativeCache(config.l1i_size, config.l1i_assoc,
                                       line, name="L1-I")
        self.l2 = SetAssociativeCache(config.l2_size, config.l2_assoc,
                                      line, name="L2")
        self.l3 = SetAssociativeCache(config.l3_size, config.l3_assoc,
                                      line, name="L3")
        self.l2_latency = config.l2_latency
        self.l3_latency = config.l3_latency
        self.memory_latency = config.memory_latency
        self.line_size = config.line_size
        self.wrong_path_fills = 0

    def state(self, base: float) -> tuple:
        """Empty: the levels are structures of their own, so the
        hierarchy holds only its wrong-path fill counter."""
        return ()

    def access(self, line_addr: int, now: float,
               wrong_path: bool = False) -> tuple[bool, float, int]:
        """Probe the L1-I; on miss, fill from the first level that has
        the line.  Returns (l1_hit, ready_time, serviced_level)."""
        ready = self.l1i.lookup(line_addr)
        if ready is not None:
            return True, max(ready, now), 1
        fill_time, level = self.fill_after_l1_miss(line_addr, now, wrong_path)
        return False, fill_time, level

    def fill_after_l1_miss(self, line_addr: int, now: float,
                           wrong_path: bool = False) -> tuple[float, int]:
        """The miss half of :meth:`access`: walk L2/L3/memory and fill.

        Split out so the batched kernel can inline the L1 probe (with
        locally-accumulated counters) and only pay a call on the miss
        path.  The caller has already performed -- and counted -- the L1
        lookup.  Returns ``(fill_time, serviced_level)``.
        """
        l2_ready = self.l2.lookup(line_addr)
        if l2_ready is not None:
            fill_time = now + self.l2_latency
            level = 2
        else:
            l3_ready = self.l3.lookup(line_addr)
            if l3_ready is not None:
                fill_time = now + self.l3_latency
                level = 3
            else:
                fill_time = now + self.memory_latency
                level = 4
                self.l3.fill(line_addr, fill_time)
            self.l2.fill(line_addr, fill_time)
        self.l1i.fill(line_addr, fill_time)
        if wrong_path:
            self.wrong_path_fills += 1
        return fill_time, level

    def line_present(self, pc: int) -> bool:
        """Is the line containing ``pc`` resident in the L1-I?"""
        return self.l1i.probe(pc & ~(self.line_size - 1))

    def lines_spanning(self, start_pc: int, end_pc: int) -> list[int]:
        """Line addresses covering the byte range [start_pc, end_pc)."""
        mask = ~(self.line_size - 1)
        first = start_pc & mask
        last = max(start_pc, end_pc - 1) & mask
        return list(range(first, last + 1, self.line_size))
