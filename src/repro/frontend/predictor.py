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


class _TaggedEntry:
    __slots__ = ("tag", "ctr", "useful")

    def __init__(self, tag: int, taken: bool):
        self.tag = tag
        self.ctr = 0 if taken else -1  # weakly taken / weakly not-taken
        self.useful = 0

    def copy(self) -> "_TaggedEntry":
        clone = _TaggedEntry.__new__(_TaggedEntry)
        clone.tag = self.tag
        clone.ctr = self.ctr
        clone.useful = self.useful
        return clone


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

        A cheap avalanche hash of the pc, the history under the table's
        mask and a per-table salt.  :meth:`update` hashes the same way,
        table by table, as its search needs them.
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
        """Predict, train, shift history.  Returns the prediction made.

        One pass from the longest history down: each table's hash is
        computed as :meth:`_indices` does, and the search stops at the
        alternate hit below the provider.  Every table above the
        provider has been hashed by then, which is all allocation reads.
        """
        self.predictions += 1
        tables = self.tables
        count = len(tables)
        values = [0] * count
        history = self.history
        masks = self._history_masks
        table_mask = self.table_mask
        tag_mask = self.tag_mask
        table_bits = self.table_bits
        pc_mixed = pc * 0x9E3779B97F4A7C15
        provider = alt = None
        provider_number = -1
        number = count - 1
        while number >= 0:
            value = (pc_mixed ^ ((history & masks[number]) * 0xC2B2AE3D27D4EB4F)
                     ^ (number + 1))
            value ^= value >> 29
            value *= 0xBF58476D1CE4E5B9
            value ^= value >> 32
            value &= 0x7FFFFFFFFFFFFFFF
            values[number] = value
            entry = tables[number].get(value & table_mask)
            if (entry is not None
                    and entry.tag == (value >> table_bits) & tag_mask):
                if provider is None:
                    provider = entry
                    provider_number = number
                else:
                    alt = entry
                    break
            number -= 1

        bimodal = self.bimodal
        key = pc & 0x3FFFF
        if provider is None:
            counter = bimodal.get(key, 1)  # 2-bit, init weak-T
            prediction = counter >= 1
        else:
            ctr = provider.ctr
            if (ctr == 0 or ctr == -1) and provider.useful == 0:
                # Newly-allocated/untrusted entry: defer to the alternate
                # prediction (standard TAGE use-alt-on-new-alloc).
                prediction = (alt.ctr >= 0 if alt is not None
                              else bimodal.get(key, 1) >= 1)
            else:
                prediction = ctr >= 0
        correct = prediction == taken

        # Train the provider (counter saturating in [-4, 3], usefulness
        # in [0, 3]) or the 2-bit bimodal counter.
        if provider is not None:
            if taken:
                if ctr < 3:
                    provider.ctr = ctr + 1
            elif ctr > -4:
                provider.ctr = ctr - 1
            if correct and provider.useful < 3:
                provider.useful += 1
        elif taken:
            if counter < 3:
                bimodal[key] = counter + 1
        elif counter > 0:
            bimodal[key] = counter - 1

        # Allocate a longer-history entry on a mispredict.
        if not correct:
            self.mispredictions += 1
            self._allocate(values, provider_number + 1, taken)

        self.history = ((history << 1) | int(taken)) & ((1 << 256) - 1)
        return prediction

    def _allocate(self, values: list[int], start: int,
                  taken: bool) -> None:
        """Allocate from the per-table hashes ``update`` computed."""
        candidates = []
        tables = self.tables
        table_mask = self.table_mask
        for table_number in range(start, len(tables)):
            value = values[table_number]
            entry = tables[table_number].get(value & table_mask)
            if entry is None or entry.useful == 0:
                candidates.append(
                    (table_number, value & table_mask,
                     (value >> self.table_bits) & self.tag_mask))
        if not candidates:
            # Decay usefulness so future allocations succeed.
            for table_number in range(start, len(tables)):
                entry = tables[table_number].get(
                    values[table_number] & table_mask)
                if entry is not None and entry.useful > 0:
                    entry.useful -= 1
            return
        table_number, index, tag = self._rng.choice(candidates[:2])
        tables[table_number][index] = _TaggedEntry(tag, taken)

    def copy_from(self, other: "TageLite") -> None:
        """Become a copy of ``other`` that shares no mutable state.

        Entries are rebuilt field by field, which is many times faster
        than ``copy.deepcopy``.  The object itself stays, so references
        to it remain valid.
        """
        vars(self).update(vars(other))
        self.tables = [{index: entry.copy() for index, entry in table.items()}
                       for table in other.tables]
        self.bimodal = dict(other.bimodal)
        self._rng = random.Random(0)
        self._rng.setstate(other._rng.getstate())

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


class _LoopEntry:
    __slots__ = ("trip", "current", "confidence")

    def __init__(self):
        self.trip = 0         # learned taken-run length
        self.current = 0      # takes seen in the ongoing run
        self.confidence = 0   # consecutive confirmations of `trip`

    def copy(self) -> "_LoopEntry":
        clone = _LoopEntry()
        clone.trip = self.trip
        clone.current = self.current
        clone.confidence = self.confidence
        return clone


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

    def copy_from(self, other: "LoopPredictor") -> None:
        """Become a copy of ``other`` (see :meth:`TageLite.copy_from`);
        the eviction order is kept."""
        vars(self).update(vars(other))
        self._table = {pc: entry.copy() for pc, entry in other._table.items()}

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

    def copy(self) -> "_ITEntry":
        clone = _ITEntry(self.tag, self.target)
        clone.confidence = self.confidence
        return clone


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
        # The hash of TageLite._indices with its own salts.
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
        """Predict, train, fold the target into the path history.

        One pass from the longest history down, hashing each table as
        :meth:`_indices` does: the first tag hit is the entry to train,
        and the first *confident* one is the provider.  The pass stops
        at the provider; every table above the trained entry has been
        hashed by then, which is all allocation reads.
        """
        self.predictions += 1
        tables = self.tables
        count = len(tables)
        values = [0] * count
        history = self.history
        masks = self._history_masks
        table_mask = self.table_mask
        tag_mask = self.tag_mask
        table_bits = self.table_bits
        pc_mixed = pc * 0x9E3779B97F4A7C15
        match = provider = None
        match_number = -1
        number = count - 1
        while number >= 0:
            value = (pc_mixed ^ ((history & masks[number]) * 0xC2B2AE3D27D4EB4F)
                     ^ (0x17 + number))
            value ^= value >> 29
            value *= 0xBF58476D1CE4E5B9
            value ^= value >> 32
            value &= 0x7FFFFFFFFFFFFFFF
            values[number] = value
            entry = tables[number].get(value & table_mask)
            if (entry is not None
                    and entry.tag == (value >> table_bits) & tag_mask):
                if match is None:
                    match = entry
                    match_number = number
                if entry.confidence > 0:
                    provider = entry
                    break
            number -= 1

        base_prediction = self.base.get(pc)
        prediction = (provider.target if provider is not None
                      else base_prediction)
        # Train the longest *matching* entry regardless of confidence, so
        # correct-but-unconfident entries can earn provider status.  An
        # entry only gains confidence when it *beats* the last-target
        # base table -- history-indexed entries that merely echo the base
        # (or noise) never earn the right to override it.
        if match is not None:
            if match.target == target:
                if base_prediction != target and match.confidence < 3:
                    match.confidence += 1
            elif match.confidence > 0:
                match.confidence -= 1
            else:
                match.target = target
        if prediction != target:
            self.mispredictions += 1
            # Allocate in a longer table than the best match.
            for number in range(match_number + 1, count):
                value = values[number]
                index = value & table_mask
                current = tables[number].get(index)
                if current is None or current.confidence == 0:
                    tables[number][index] = _ITEntry(
                        (value >> table_bits) & tag_mask, target)
                    break
        self.base[pc] = target
        self.history = ((history << 2) ^ (target & 0xFFFF)) & ((1 << 128) - 1)
        return prediction

    def copy_from(self, other: "ITTageLite") -> None:
        """Become a copy of ``other`` (see :meth:`TageLite.copy_from`)."""
        vars(self).update(vars(other))
        self.tables = [{index: entry.copy() for index, entry in table.items()}
                       for table in other.tables]
        self.base = dict(other.base)

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
