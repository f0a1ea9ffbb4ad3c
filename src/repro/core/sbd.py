"""Shadow Branch Decoder (Sections 3.1-3.4).

Decodes the unused bytes of cache lines that FDIP has already brought
into the front-end:

* **Tail decoding** (Section 3.3): after a taken branch leaves a line,
  the first shadow byte is a known instruction boundary, so a single
  linear sweep from the branch's end to the line's end suffices.

* **Head decoding** (Section 3.2): the bytes from the line start to the
  FTQ entry point have *unknown* instruction boundaries in a variable-
  length ISA.  The decoder runs the paper's two phases:

  1. *Index Computation* -- for every byte offset in the head region,
     record the length of the instruction that would start there (0 when
     no valid instruction starts there), producing the ``Length`` vector
     of Figure 9.
  2. *Path Validation* -- walk each candidate start offset through the
     Length vector; a path is valid iff it lands exactly on the entry
     offset.  Lines with more than ``max_valid_paths`` valid paths are
     discarded (too ambiguous).  Among valid paths, the *Valid Index*
     policy picks which instructions to trust: ``FIRST`` (the first
     offset with a valid path -- the paper's best), ``ZERO`` (offset 0
     when valid), or ``MERGE`` (the common convergence point).

Decoded direct unconditional jumps/calls and returns are handed to the
SBB.

Decode tables (the per-cycle hot path)
--------------------------------------
Program images are immutable, so every decode result is a pure function
of the image bytes, the line and the boundary offset (plus, for heads,
the decode policy), and caching needs no invalidation.  A decoder reads
the process-wide :mod:`repro.core.decode_tables` entry of its image
directly, and each of its three tables is a plain dict get, or a
compute and store on a miss:

* the **line table** holds, per cache line, the instruction that would
  start at *every* byte offset of the line (decoded against the
  line-end limit) as a compact ``(length, kind, rel)`` tuple from
  :func:`repro.isa.decoder.decode_fields` -- ``rel`` is ``target - pc``
  for direct branches, and an entry's pc is ``line + offset``.  Index
  Computation for any entry offset, the chosen-path walk, and tail
  sweeps all read from this one vector, so a line entered at several
  different offsets decodes its bytes exactly once;
* the **head table** per (line, entry offset), one per decode policy,
  and the **tail table** per (line, exit offset), which make repeats of
  the same boundary free.

A shorter decode limit can only turn a full-line decode result into
``None`` -- never into a *different* instruction -- so a full-line decode
whose length fits below the entry offset is byte-for-byte what a
limit-at-entry decode would produce; the length-vector filter encodes
exactly that.

The tables are content-addressed by image digest, so decoders built over
the same program -- one per (workload, config) grid cell -- share results
instead of each paying the byte-by-byte decode.  ``shared=False`` gives a
decoder private tables of the same shape (tests and microbenchmarks that
probe the raw decode path use it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.decode_tables import SharedDecodeTables, shared_tables
from repro.isa.branch import SBB_ELIGIBLE, BranchKind
from repro.isa.decoder import decode_fields
from repro.frontend.config import IndexPolicy, SkiaConfig
from repro.obs.profiler import PROFILER


@dataclass(frozen=True)
class ShadowBranch:
    """A branch found in a shadow region."""

    pc: int
    kind: BranchKind
    target: int | None  # None for returns


@dataclass
class HeadDecodeResult:
    """Outcome of head-decoding one (line, entry_offset) pair."""

    branches: list[ShadowBranch] = field(default_factory=list)
    valid_paths: int = 0
    discarded: bool = False
    chosen_start: int | None = None
    decoded_pcs: list[int] = field(default_factory=list)


@dataclass
class TailDecodeResult:
    """Outcome of tail-decoding one (line, exit_offset) pair."""

    branches: list[ShadowBranch] = field(default_factory=list)
    decoded_pcs: list[int] = field(default_factory=list)


class ShadowBranchDecoder:
    """Stateless-per-line decoder over a program image's decode tables."""

    def __init__(self, image: bytes, base_address: int,
                 config: SkiaConfig, line_size: int = 64,
                 shared: bool = True):
        self.image = image
        self.base_address = base_address
        self.config = config
        self.line_size = line_size
        tables = (shared_tables(image, base_address, line_size) if shared
                  else SharedDecodeTables(None))
        self._lines = tables.lines
        self._tails = tables.tails
        self._heads = tables.heads_for(config.max_valid_paths,
                                       config.index_policy)

    # ------------------------------------------------------------------
    # Per-line decode vector
    # ------------------------------------------------------------------

    def _line_decodes(self, line: int) -> list:
        """``(length, kind, rel)`` of the instruction starting at every
        byte offset of ``line``.

        Decoded against the line-end limit (clamped to the image), so
        entries can be shared between Index Computation, path walks, and
        tail sweeps.  Offsets outside the image, and offsets where no
        valid instruction starts, hold ``None``.
        """
        decodes = self._lines.get(line)
        if decodes is None:
            decodes = self._lines[line] = self._compute_line_decodes(line)
        return decodes

    def _compute_line_decodes(self, line: int) -> list:
        # Profiled on table misses only -- each line of an image
        # decodes once per process -- and only when the profiler is on,
        # so the disabled path pays nothing (tests/obs/test_overhead.py).
        if PROFILER.enabled:
            with PROFILER.section("sbd.line_decode"):
                return self._decode_line(line)
        return self._decode_line(line)

    def _decode_line(self, line: int) -> list:
        image = self.image
        image_base = line - self.base_address
        end = min(image_base + self.line_size, len(image))
        vector = [None] * self.line_size
        for offset in range(max(image_base, 0), end):
            vector[offset - image_base] = decode_fields(image, offset, end)
        return vector

    # ------------------------------------------------------------------
    # Tail decoding
    # ------------------------------------------------------------------

    def decode_tail(self, exit_pc: int) -> TailDecodeResult:
        """Decode from ``exit_pc`` (first byte after a taken branch) to
        the end of the branch's cache line.

        The branch's last byte is at ``exit_pc - 1``; the shadow region is
        the rest of that line.  Empty when the branch ends the line.
        """
        last_line = (exit_pc - 1) & ~(self.line_size - 1)
        line_end = last_line + self.line_size
        if exit_pc >= line_end:
            return TailDecodeResult()
        key = (last_line, exit_pc - last_line)
        result = self._tails.get(key)
        if result is None:
            result = self._tail_missing(key, exit_pc, line_end)
        return result

    def _tail_missing(self, key: tuple[int, int], exit_pc: int,
                      line_end: int) -> TailDecodeResult:
        """Sweep a tail-table miss and store the result."""
        if PROFILER.enabled:
            with PROFILER.section("sbd.tail_decode"):
                result = self._sweep(exit_pc, line_end)
        else:
            result = self._sweep(exit_pc, line_end)
        self._tails[key] = result
        return result

    def _sweep(self, start_pc: int, limit_pc: int) -> TailDecodeResult:
        result = TailDecodeResult()
        offset = start_pc - self.base_address
        if offset < 0 or offset >= len(self.image):
            return result
        line = limit_pc - self.line_size
        decodes = self._line_decodes(line)
        position = start_pc - line
        while position < self.line_size:
            decoded = decodes[position]
            if decoded is None:
                break
            length, kind, rel = decoded
            pc = line + position
            result.decoded_pcs.append(pc)
            if kind in SBB_ELIGIBLE:
                result.branches.append(ShadowBranch(
                    pc, kind, None if rel is None else pc + rel))
            position += length
        return result

    # ------------------------------------------------------------------
    # Head decoding
    # ------------------------------------------------------------------

    def decode_head(self, entry_pc: int) -> HeadDecodeResult:
        """Decode the head shadow region of ``entry_pc``'s cache line.

        ``entry_pc`` is the FTQ entry point (a branch target); the shadow
        region is from the line start up to (excluding) ``entry_pc``.
        """
        line = entry_pc & ~(self.line_size - 1)
        entry_offset = entry_pc - line
        if entry_offset == 0:
            return HeadDecodeResult()
        key = (line, entry_offset)
        result = self._heads.get(key)
        if result is None:
            result = self._head_missing(key, line, entry_offset)
        return result

    def _head_missing(self, key: tuple[int, int], line: int,
                      entry_offset: int) -> HeadDecodeResult:
        """Decode a head-table miss and store the result."""
        if PROFILER.enabled:
            with PROFILER.section("sbd.head_decode"):
                result = self._decode_head_region(line, entry_offset)
        else:
            result = self._decode_head_region(line, entry_offset)
        self._heads[key] = result
        return result

    def _decode_head_region(self, line: int, entry_offset: int) -> HeadDecodeResult:
        image_base = line - self.base_address
        if image_base < 0 or image_base >= len(self.image):
            return HeadDecodeResult()

        decodes = self._line_decodes(line)
        lengths = self._index_computation(image_base, entry_offset)
        valid_starts = self._path_validation(lengths, entry_offset)

        result = HeadDecodeResult(valid_paths=len(valid_starts))
        if not valid_starts:
            return result
        if len(valid_starts) > self.config.max_valid_paths:
            result.discarded = True
            return result

        start = self._choose_start(valid_starts, lengths, entry_offset)
        result.chosen_start = start

        # Walk the chosen path and collect eligible branches.  Every step
        # fits below the entry offset (the path validated), so the full-
        # line decodes are exactly what a limit-at-entry decode yields.
        offset = start
        while offset < entry_offset:
            decoded = decodes[offset]
            if decoded is None:  # pragma: no cover - path was validated
                break
            length, kind, rel = decoded
            pc = line + offset
            result.decoded_pcs.append(pc)
            if kind in SBB_ELIGIBLE:
                result.branches.append(ShadowBranch(
                    pc, kind, None if rel is None else pc + rel))
            offset += length
        return result

    def _index_computation(self, image_base: int,
                           entry_offset: int) -> list[int]:
        """Phase 1: the Length vector (0 = no valid instruction here).

        Reads the shared line decode vector; an instruction that would
        cross the entry boundary records 0, matching a decode performed
        with the entry offset as its limit.
        """
        decodes = self._line_decodes(self.base_address + image_base)
        lengths = []
        for offset in range(entry_offset):
            decoded = decodes[offset]
            length = 0 if decoded is None else decoded[0]
            if offset + length > entry_offset:
                length = 0
            lengths.append(length)
        return lengths

    def _path_validation(self, lengths: list[int],
                         entry_offset: int) -> list[int]:
        """Phase 2: start offsets whose paths land exactly on the entry.

        Memoised right-to-left: ``reaches[p]`` is True when a walk from
        position ``p`` aligns with the entry offset, so validating all
        starts is O(region length).
        """
        reaches = [False] * (entry_offset + 1)
        reaches[entry_offset] = True
        for position in range(entry_offset - 1, -1, -1):
            length = lengths[position]
            if length and position + length <= entry_offset:
                reaches[position] = reaches[position + length]
        return [start for start in range(entry_offset) if reaches[start]]

    def _choose_start(self, valid_starts: list[int], lengths: list[int],
                      entry_offset: int) -> int:
        policy = self.config.index_policy
        if policy is IndexPolicy.ZERO:
            return 0 if valid_starts[0] == 0 else valid_starts[0]
        if policy is IndexPolicy.MERGE:
            return self._merge_index(valid_starts, lengths, entry_offset)
        return valid_starts[0]  # FIRST

    def _merge_index(self, valid_starts: list[int], lengths: list[int],
                     entry_offset: int) -> int:
        """The most common recent position among all valid paths."""
        visit_counts: dict[int, int] = {}
        for start in valid_starts:
            position = start
            while position < entry_offset:
                visit_counts[position] = visit_counts.get(position, 0) + 1
                position += lengths[position]
        # Most shared; ties broken toward the most recent (largest) index.
        best = max(visit_counts.items(), key=lambda item: (item[1], item[0]))
        return best[0]
