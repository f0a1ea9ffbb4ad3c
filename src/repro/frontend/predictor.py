"""Conditional and indirect branch predictors.

The paper's BPU uses TAGE-SC-L (64KB) and ITTAGE (64KB).  We implement
faithful-but-scaled versions:

* :class:`TageLite` -- a bimodal base predictor plus N tagged tables with
  geometric history lengths, partial tags, usefulness counters and the
  standard TAGE allocate-on-mispredict policy.  Direction accuracy on the
  synthetic workloads is >97%, reproducing the regime the paper studies
  (direction prediction is good; BTB *presence* misses dominate).
* :class:`ITTageLite` -- a last-target base table plus tagged
  history-indexed tables for indirect targets.

Both are deliberately compact: the reproduction's results depend on the
*relative* quality of these predictors, not on CBP-contest accuracy (see
DESIGN.md substitutions).
"""

from __future__ import annotations

import random


def _mix(pc: int, history: int, salt: int) -> int:
    """Cheap avalanche hash for table indexing."""
    value = (pc * 0x9E3779B97F4A7C15) ^ (history * 0xC2B2AE3D27D4EB4F) ^ salt
    value ^= value >> 29
    value *= 0xBF58476D1CE4E5B9
    value ^= value >> 32
    return value & 0x7FFFFFFFFFFFFFFF


class _TaggedEntry:
    __slots__ = ("tag", "ctr", "useful")

    def __init__(self, tag: int, taken: bool):
        self.tag = tag
        self.ctr = 0 if taken else -1  # weakly taken / weakly not-taken
        self.useful = 0


class TageLite:
    """TAGE with a bimodal base and geometric tagged tables."""

    COUNTERS = ("predictions", "mispredictions")

    def __init__(self, table_bits: int = 12, tag_bits: int = 9,
                 history_lengths: tuple[int, ...] = (5, 15, 44, 130),
                 seed: int = 0):
        self.table_bits = table_bits
        self.tag_bits = tag_bits
        self.history_lengths = history_lengths
        self.table_mask = (1 << table_bits) - 1
        self.tag_mask = (1 << tag_bits) - 1
        self._history_masks = tuple((1 << length) - 1
                                    for length in history_lengths)
        self.tables: list[dict[int, _TaggedEntry]] = [
            dict() for _ in history_lengths
        ]
        self.bimodal: dict[int, int] = {}
        self.history = 0
        self._rng = random.Random(seed ^ 0x7A6E)
        self.predictions = 0
        self.mispredictions = 0

    # ------------------------------------------------------------------

    def _indices(self, pc: int) -> list[tuple[int, int]]:
        """(index, tag) per tagged table for the current history.

        :func:`_mix` is inlined (this runs once per conditional branch)
        over precomputed history masks; the arithmetic is identical.
        """
        out = []
        history = self.history
        table_mask = self.table_mask
        tag_mask = self.tag_mask
        table_bits = self.table_bits
        pc_mixed = pc * 0x9E3779B97F4A7C15
        salt = 1
        for mask in self._history_masks:
            value = pc_mixed ^ ((history & mask) * 0xC2B2AE3D27D4EB4F) ^ salt
            value ^= value >> 29
            value *= 0xBF58476D1CE4E5B9
            value ^= value >> 32
            value &= 0x7FFFFFFFFFFFFFFF
            out.append((value & table_mask,
                        (value >> table_bits) & tag_mask))
            salt += 1
        return out

    def _bimodal_predict(self, pc: int) -> bool:
        return self.bimodal.get(pc & 0x3FFFF, 1) >= 1  # 2-bit, init weak-T

    def predict(self, pc: int) -> bool:
        """Predict direction; does not update any state."""
        provider = self._find_provider(pc)
        if provider is None:
            return self._bimodal_predict(pc)
        _, _, entry = provider
        return entry.ctr >= 0

    def _find_provider(self, pc: int):
        """Longest-history tag hit: (table_number, index, entry)."""
        indices = self._indices(pc)
        for table_number in range(len(self.tables) - 1, -1, -1):
            index, tag = indices[table_number]
            entry = self.tables[table_number].get(index)
            if entry is not None and entry.tag == tag:
                return table_number, index, entry
        return None

    def update(self, pc: int, taken: bool) -> bool:
        """Predict, train, shift history.  Returns the prediction made."""
        self.predictions += 1
        indices = self._indices(pc)

        provider = None
        alt = None
        for table_number in range(len(self.tables) - 1, -1, -1):
            index, tag = indices[table_number]
            entry = self.tables[table_number].get(index)
            if entry is not None and entry.tag == tag:
                if provider is None:
                    provider = (table_number, index, entry)
                else:
                    alt = entry
                    break

        if provider is None:
            prediction = self._bimodal_predict(pc)
        else:
            entry = provider[2]
            weak = entry.ctr in (0, -1) and entry.useful == 0
            if weak:
                # Newly-allocated/untrusted entry: defer to the alternate
                # prediction (standard TAGE use-alt-on-new-alloc).
                prediction = (alt.ctr >= 0 if alt is not None
                              else self._bimodal_predict(pc))
            else:
                prediction = entry.ctr >= 0
        correct = prediction == taken
        if not correct:
            self.mispredictions += 1

        # Train the provider (or bimodal).
        if provider is not None:
            _, _, entry = provider
            entry.ctr = _saturate(entry.ctr + (1 if taken else -1), 3)
            if correct:
                entry.useful = min(entry.useful + 1, 3)
        else:
            key = pc & 0x3FFFF
            counter = self.bimodal.get(key, 1)
            self.bimodal[key] = max(0, min(3, counter + (1 if taken else -1)))

        # Allocate a longer-history entry on a mispredict.
        if not correct:
            start = provider[0] + 1 if provider is not None else 0
            self._allocate(indices, start, taken)

        self.history = ((self.history << 1) | int(taken)) & ((1 << 256) - 1)
        return prediction

    def _allocate(self, indices: list[tuple[int, int]], start: int,
                  taken: bool) -> None:
        candidates = []
        for table_number in range(start, len(self.tables)):
            index, tag = indices[table_number]
            entry = self.tables[table_number].get(index)
            if entry is None or entry.useful == 0:
                candidates.append((table_number, index, tag))
        if not candidates:
            # Decay usefulness so future allocations succeed.
            for table_number in range(start, len(self.tables)):
                index, _ = indices[table_number]
                entry = self.tables[table_number].get(index)
                if entry is not None and entry.useful > 0:
                    entry.useful -= 1
            return
        table_number, index, tag = self._rng.choice(candidates[:2])
        self.tables[table_number][index] = _TaggedEntry(tag, taken)

    def state(self, base: float) -> tuple:
        """Tagged entries, bimodal counters, history and the allocator's
        RNG state.  Holds no timestamps."""
        return (
            tuple(tuple(sorted((index, e.tag, e.ctr, e.useful)
                               for index, e in table.items()))
                  for table in self.tables),
            tuple(sorted(self.bimodal.items())),
            self.history,
            self._rng.getstate(),
        )

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions


def _saturate(value: int, magnitude: int) -> int:
    return max(-magnitude - 1, min(magnitude, value))


class _LoopEntry:
    __slots__ = ("trip", "current", "confidence")

    def __init__(self):
        self.trip = 0         # learned taken-run length
        self.current = 0      # takes seen in the ongoing run
        self.confidence = 0   # consecutive confirmations of `trip`


class LoopPredictor:
    """Fixed-trip loop termination predictor (the L of TAGE-SC-L).

    Learns, per branch, the number of consecutive taken outcomes before
    a not-taken one; once the same trip count is confirmed
    ``confidence_threshold`` times, it predicts the exit exactly --
    something global-history TAGE only manages for short trips.
    """

    COUNTERS = ("predictions", "overrides")

    def __init__(self, entries: int = 256, confidence_threshold: int = 3,
                 max_trip: int = 4096):
        self.entries = entries
        self.confidence_threshold = confidence_threshold
        self.max_trip = max_trip
        self._table: dict[int, _LoopEntry] = {}  # insertion-ordered LRU
        self.predictions = 0
        self.overrides = 0

    def _entry(self, pc: int) -> _LoopEntry:
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.entries:
                self._table.pop(next(iter(self._table)))
            entry = _LoopEntry()
            self._table[pc] = entry
        return entry

    def predict(self, pc: int) -> bool | None:
        """Confident prediction for this occurrence, else None."""
        entry = self._table.get(pc)
        if entry is None or entry.confidence < self.confidence_threshold:
            return None
        return entry.current < entry.trip

    def update(self, pc: int, taken: bool) -> None:
        entry = self._entry(pc)
        if taken:
            entry.current += 1
            if entry.current > self.max_trip:
                # Not a fixed loop at a trackable scale; reset learning.
                entry.current = 0
                entry.trip = 0
                entry.confidence = 0
        else:
            if entry.trip == entry.current and entry.trip > 0:
                entry.confidence = min(entry.confidence + 1, 7)
            else:
                entry.trip = entry.current
                entry.confidence = 0
            entry.current = 0

    def state(self, base: float) -> tuple:
        """Per-PC ``(trip, current, confidence)`` in eviction order."""
        return tuple((pc, e.trip, e.current, e.confidence)
                     for pc, e in self._table.items())


class _ITEntry:
    __slots__ = ("tag", "target", "confidence")

    def __init__(self, tag: int, target: int):
        self.tag = tag
        self.target = target
        self.confidence = 0


class ITTageLite:
    """Indirect target predictor: last-target base + tagged history tables."""

    COUNTERS = ("predictions", "mispredictions")

    def __init__(self, table_bits: int = 10, history_lengths: tuple[int, ...] = (4, 16, 64),
                 tag_bits: int = 9):
        self.table_mask = (1 << table_bits) - 1
        self.tag_mask = (1 << tag_bits) - 1
        self.table_bits = table_bits
        self.history_lengths = history_lengths
        self._history_masks = tuple((1 << length) - 1
                                    for length in history_lengths)
        self.tables: list[dict[int, _ITEntry]] = [dict() for _ in history_lengths]
        self.base: dict[int, int] = {}
        self.history = 0  # path history of recent indirect targets
        self.predictions = 0
        self.mispredictions = 0

    def _indices(self, pc: int) -> list[tuple[int, int]]:
        # _mix inlined over precomputed masks, as in TageLite._indices.
        out = []
        history = self.history
        table_mask = self.table_mask
        tag_mask = self.tag_mask
        table_bits = self.table_bits
        pc_mixed = pc * 0x9E3779B97F4A7C15
        salt = 0x17
        for mask in self._history_masks:
            value = pc_mixed ^ ((history & mask) * 0xC2B2AE3D27D4EB4F) ^ salt
            value ^= value >> 29
            value *= 0xBF58476D1CE4E5B9
            value ^= value >> 32
            value &= 0x7FFFFFFFFFFFFFFF
            out.append((value & table_mask,
                        (value >> table_bits) & tag_mask))
            salt += 1
        return out

    def _find_provider(self, indices: list[tuple[int, int]]):
        """Longest-history *confident* tag hit; unconfident entries defer
        to the base last-target table (the ITTAGE use-alt policy)."""
        for table_number in range(len(self.tables) - 1, -1, -1):
            index, tag = indices[table_number]
            entry = self.tables[table_number].get(index)
            if entry is not None and entry.tag == tag and entry.confidence > 0:
                return table_number, index, entry
        return None

    def predict(self, pc: int) -> int | None:
        provider = self._find_provider(self._indices(pc))
        if provider is not None:
            return provider[2].target
        return self.base.get(pc)

    def update(self, pc: int, target: int) -> int | None:
        """Predict, train, fold the target into the path history."""
        self.predictions += 1
        indices = self._indices(pc)
        provider = self._find_provider(indices)
        prediction = provider[2].target if provider else self.base.get(pc)
        if prediction != target:
            self.mispredictions += 1

        # Train the longest *matching* entry regardless of confidence, so
        # correct-but-unconfident entries can earn provider status.  An
        # entry only gains confidence when it *beats* the last-target
        # base table -- history-indexed entries that merely echo the base
        # (or noise) never earn the right to override it.
        base_prediction = self.base.get(pc)
        match = None
        for table_number in range(len(self.tables) - 1, -1, -1):
            index, tag = indices[table_number]
            entry = self.tables[table_number].get(index)
            if entry is not None and entry.tag == tag:
                match = (table_number, index, entry)
                break
        if match is not None:
            _, _, entry = match
            if entry.target == target:
                if base_prediction != target:
                    entry.confidence = min(entry.confidence + 1, 3)
            elif entry.confidence > 0:
                entry.confidence -= 1
            else:
                entry.target = target
        if prediction != target:
            # Allocate in a longer table than the best match.
            start = match[0] + 1 if match else 0
            for table_number in range(start, len(self.tables)):
                index, tag = indices[table_number]
                current = self.tables[table_number].get(index)
                if current is None or current.confidence == 0:
                    self.tables[table_number][index] = _ITEntry(tag, target)
                    break
        self.base[pc] = target
        self.history = ((self.history << 2) ^ (target & 0xFFFF)) & ((1 << 128) - 1)
        return prediction

    def state(self, base: float) -> tuple:
        """Tagged entries, last-target base table and path history.
        Holds no timestamps."""
        return (
            tuple(tuple(sorted((index, e.tag, e.target, e.confidence)
                               for index, e in table.items()))
                  for table in self.tables),
            tuple(sorted(self.base.items())),
            self.history,
        )

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions
