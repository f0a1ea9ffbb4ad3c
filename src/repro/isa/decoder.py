"""Byte-stream decoder (the honest one).

This decoder recovers instruction *lengths*, *branch kinds* and *direct
branch targets* from raw bytes -- exactly the capability the paper assumes
of the front-end predecoder and of Skia's Shadow Branch Decoder.  It never
consults ground-truth layout information, so decoding from a mid-
instruction offset behaves like real x86: it usually produces a valid but
different instruction, and sometimes fails on an invalid encoding.

The decode rules live once, in :func:`decode_fields`: it walks flat
per-byte tables built at import from :mod:`repro.isa.opcodes` and
returns ``(length, kind, target - pc)`` without building an object.
The Shadow Branch Decoder stores those tuples as its per-line vectors.
Every result without a direct target is one shared, prebuilt tuple per
``(kind, length)``, so a line vector allocates (and holds for the
cyclic garbage collector to scan) only its direct-branch entries.
:func:`decode_at` wraps the same core, adding the mnemonic and a
:class:`DecodedInstruction`.  :class:`Decoder` adds a bounded LRU memo
keyed on (offset, limit) for callers that re-decode one image.
"""

from __future__ import annotations

from repro.caching import CacheStats, LRUCache
from repro.isa.branch import BranchKind
from repro.isa.instruction import DecodedInstruction
from repro.isa.opcodes import (
    MAX_INSTRUCTION_LENGTH,
    PRIMARY_MAP,
    SECONDARY_MAP,
    Format,
    ff_group_kind,
    modrm_tail_length,
)

# Format codes of the per-byte tables.  RET decodes exactly like FIXED
# (opcode plus immediate), so the two share a code.
_FIXED, _REL, _MODRM, _GROUP_FF, _ESCAPE, _PREFIX, _INVALID = range(7)
_FORMAT_CODES = {
    Format.FIXED: _FIXED, Format.RET: _FIXED, Format.REL: _REL,
    Format.MODRM: _MODRM, Format.GROUP_FF: _GROUP_FF,
    Format.ESCAPE: _ESCAPE, Format.PREFIX: _PREFIX,
    Format.INVALID: _INVALID,
}


#: Per kind, the result of every targetless decode by length:
#: ``_PLAIN[kind][length] == (length, kind, None)``.
_PLAIN = {kind: tuple((length, kind, None)
                      for length in range(MAX_INSTRUCTION_LENGTH + 1))
          for kind in BranchKind}


def _byte_table(opcode_map) -> tuple:
    """``(format code, immediate bytes, kind, _PLAIN[kind])`` per opcode
    byte."""
    return tuple((_FORMAT_CODES[info.format], info.imm_bytes, info.kind,
                  _PLAIN[info.kind])
                 for info in (opcode_map[byte] for byte in range(256)))


_PRIMARY = _byte_table(PRIMARY_MAP)
_SECONDARY = _byte_table(SECONDARY_MAP)

#: Per ModRM byte: bytes from the ModRM to the end of the displacement
#: (for a SIB base other than 5); for ModRM bytes that need a SIB, the
#: displacement bytes a SIB base of 5 adds (0 or 4), else ``None``; the
#: targetless results of its 0xFF-group kind.
_MODRM_TAIL = tuple(modrm_tail_length(modrm, 0) for modrm in range(256))
_SIB_BASE5_DISP = tuple(
    None if modrm_tail_length(modrm, None) is not None
    else modrm_tail_length(modrm, 5) - modrm_tail_length(modrm, 0)
    for modrm in range(256))
_FF_PLAIN = tuple(_PLAIN[ff_group_kind(modrm)] for modrm in range(256))

_FF_MNEMONICS = {BranchKind.INDIRECT_CALL: "call r/m",
                 BranchKind.INDIRECT_UNCOND: "jmp r/m"}


def decode_fields(code: bytes | bytearray | memoryview, offset: int,
                  end: int) -> tuple[int, BranchKind, int | None] | None:
    """Decode one instruction at ``code[offset]`` into plain fields.

    Returns ``(length, kind, rel)``, where ``rel`` is ``target - pc``
    for a direct branch (``length`` plus the signed immediate) and
    ``None`` otherwise, or ``None`` for an invalid encoding, an
    instruction that would reach past ``end``, or a prefix run past the
    15-byte architectural limit.  The caller guarantees
    ``0 <= offset < end <= len(code)``.
    """
    fmt, imm, kind, plain = _PRIMARY[code[offset]]
    cursor = offset
    if fmt == _PREFIX:
        stop = min(end, offset + MAX_INSTRUCTION_LENGTH)
        while fmt == _PREFIX:
            cursor += 1
            if cursor >= stop:
                return None
            fmt, imm, kind, plain = _PRIMARY[code[cursor]]
    if fmt == _ESCAPE:
        cursor += 1
        if cursor >= end:
            return None
        fmt, imm, kind, plain = _SECONDARY[code[cursor]]
    cursor += 1  # past the opcode byte
    rel = None
    if fmt == _FIXED:
        cursor += imm
    elif fmt == _MODRM or fmt == _GROUP_FF:
        if cursor >= end:
            return None
        modrm = code[cursor]
        base5_disp = _SIB_BASE5_DISP[modrm]
        if base5_disp is not None:
            if cursor + 1 >= end:
                return None  # the SIB byte is past the limit
            if base5_disp and code[cursor + 1] & 0x7 == 5:
                cursor += base5_disp
        cursor += _MODRM_TAIL[modrm] + imm
        if fmt == _GROUP_FF:
            plain = _FF_PLAIN[modrm]
    elif fmt == _REL:
        if cursor + imm > end:
            return None
        if imm == 1:
            rel = code[cursor]
            if rel & 0x80:
                rel -= 0x100
        else:
            rel = int.from_bytes(code[cursor:cursor + imm], "little",
                                 signed=True)
        cursor += imm
        rel += cursor - offset
    else:  # _INVALID
        return None
    length = cursor - offset
    if length > MAX_INSTRUCTION_LENGTH or cursor > end:
        return None
    if rel is None:
        return plain[length]
    return length, kind, rel


def _mnemonic(code: bytes | bytearray | memoryview, offset: int,
              kind: BranchKind) -> str:
    """Mnemonic of the instruction :func:`decode_fields` accepted at
    ``offset`` (its opcode byte and escape are known to be in range)."""
    cursor = offset
    while _PRIMARY[code[cursor]][0] == _PREFIX:
        cursor += 1
    info = PRIMARY_MAP[code[cursor]]
    if info.format is Format.ESCAPE:
        return SECONDARY_MAP[code[cursor + 1]].mnemonic
    if info.format is Format.GROUP_FF:
        return _FF_MNEMONICS.get(kind, info.mnemonic)
    return info.mnemonic


def decode_at(
    code: bytes | bytearray | memoryview,
    offset: int,
    pc: int | None = None,
    limit: int | None = None,
) -> DecodedInstruction | None:
    """Decode one instruction starting at ``code[offset]``.

    Parameters
    ----------
    code:
        The byte image (or any slice-able byte container).
    offset:
        Byte offset to start decoding at.
    pc:
        Virtual address of ``code[offset]``; defaults to ``offset``.
        Direct-branch targets are computed relative to this.
    limit:
        Offset one past the last byte that may be consumed (e.g. a cache
        line boundary during shadow decoding).  Instructions that would
        run past the limit decode to ``None``.

    Returns ``None`` for invalid encodings, truncated instructions, or
    prefix runs exceeding the 15-byte architectural limit.
    """
    end = len(code) if limit is None else min(limit, len(code))
    if offset < 0 or offset >= end:
        return None
    fields = decode_fields(code, offset, end)
    if fields is None:
        return None
    if pc is None:
        pc = offset
    length, kind, rel = fields
    return DecodedInstruction(pc=pc, length=length, kind=kind,
                              target=None if rel is None else pc + rel,
                              mnemonic=_mnemonic(code, offset, kind))


def instruction_length(
    code: bytes | bytearray | memoryview,
    offset: int,
    limit: int | None = None,
) -> int:
    """Length of the instruction at ``offset``; 0 when undecodable.

    The 0-for-invalid convention matches the paper's Figure 9, where the
    Index Computation phase records a zero for bytes at which no valid
    instruction starts.
    """
    decoded = decode_at(code, offset, limit=limit)
    return 0 if decoded is None else decoded.length


#: Default bound for the per-Decoder memo.  Long sweeps decode hundreds
#: of programs through one Decoder; an unbounded dict grew without limit,
#: while hot (offset, limit) pairs recur within a small working set.
DEFAULT_MEMO_SIZE = 32_768

_MEMO_MISS = object()


class Decoder:
    """Decoder with a bounded per-instance memo for repeated decodes.

    Memoises :func:`decode_at` on ``(offset, limit)`` for callers that
    decode the same offsets of one image repeatedly (the Shadow Branch
    Decoder keeps its own per-line vectors instead).  The memo is an LRU
    bounded at ``memo_size`` entries so long sweeps cannot grow it
    without limit; hit/miss/eviction counters feed the
    component-throughput benchmark.
    """

    def __init__(self, code: bytes | bytearray | memoryview, base_pc: int = 0,
                 memo_size: int | None = DEFAULT_MEMO_SIZE):
        self._code = bytes(code)
        self._base_pc = base_pc
        self._memo = LRUCache(maxsize=memo_size)

    @property
    def code(self) -> bytes:
        return self._code

    @property
    def base_pc(self) -> int:
        return self._base_pc

    @property
    def memo_hits(self) -> int:
        return self._memo.hits

    @property
    def memo_misses(self) -> int:
        return self._memo.misses

    @property
    def memo_evictions(self) -> int:
        return self._memo.evictions

    @property
    def memo_stats(self) -> CacheStats:
        return self._memo.stats

    def decode(self, offset: int, limit: int | None = None) -> DecodedInstruction | None:
        key = (offset, limit)
        cached = self._memo.get(key, _MEMO_MISS)
        if cached is not _MEMO_MISS:
            return cached
        result = decode_at(self._code, offset, pc=self._base_pc + offset, limit=limit)
        self._memo[key] = result
        return result

    def decode_pc(self, pc: int, limit_pc: int | None = None) -> DecodedInstruction | None:
        """Decode by virtual address rather than image offset."""
        limit = None if limit_pc is None else limit_pc - self._base_pc
        return self.decode(pc - self._base_pc, limit=limit)

    def length(self, offset: int, limit: int | None = None) -> int:
        decoded = self.decode(offset, limit)
        return 0 if decoded is None else decoded.length

    def linear_sweep(self, start: int, stop: int) -> list[DecodedInstruction]:
        """Decode consecutively from ``start`` until ``stop`` or failure."""
        out: list[DecodedInstruction] = []
        offset = start
        while offset < stop:
            decoded = self.decode(offset, limit=stop)
            if decoded is None:
                break
            out.append(decoded)
            offset += decoded.length
        return out
