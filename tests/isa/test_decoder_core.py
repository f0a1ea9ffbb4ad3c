"""The table-driven decode core against ``decode_at``, a direct
reading of the opcode maps, and a recorded line-vector digest.

:func:`repro.isa.decoder.decode_fields` is the one place the decode
rules live: ``decode_at`` wraps it, and the Shadow Branch Decoder stores
its ``(length, kind, target - pc)`` tuples as per-line vectors.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sbd import ShadowBranchDecoder
from repro.frontend.config import SkiaConfig
from repro.isa.decoder import decode_at, decode_fields
from repro.isa.opcodes import (
    MAX_INSTRUCTION_LENGTH,
    PRIMARY_MAP,
    SECONDARY_MAP,
    Format,
    ff_group_kind,
    modrm_tail_length,
)
from repro.workloads.codegen import ProgramGenerator
from repro.workloads.profiles import get_profile

#: Bytes that steer decoding into its corner cases: REX and legacy
#: prefixes, the two-byte escape, the 0xFF group, REL opcodes (rel8,
#: rel32, 0x0F 0x8x), ModRM bytes that need a SIB (rm=4) or a
#: displacement (mod=0/rm=5, mod=1, mod=2), SIB base 5, and invalid
#: primary/secondary opcodes.
_INTERESTING = (
    list(range(0x40, 0x50)) + [0x66, 0x67, 0xF0, 0xF2, 0xF3, 0x2E]
    + [0x0F, 0x0F, 0xFF, 0xFF]
    + [0x70, 0x7F, 0xE3, 0xEB, 0xE8, 0xE9, 0x84, 0x8F]
    + [0x04, 0x05, 0x14, 0x44, 0x84, 0x94, 0x25, 0x65, 0xC4, 0xD0]
    + [0x06, 0x62, 0xD6, 0x04, 0x38]
    + [0xC3, 0xC2, 0x90, 0x89, 0x8B, 0x81, 0xC7, 0xA1]
)

_BYTES = st.lists(
    st.one_of(st.sampled_from(_INTERESTING), st.integers(0, 255)),
    min_size=1, max_size=40).map(bytes)


def _reference_fields(code, offset, end):
    """The decode rules read straight off the opcode maps, one helper
    call per step: an independent oracle for the table-driven core."""
    cursor = offset
    while True:
        if cursor >= end or cursor - offset >= MAX_INSTRUCTION_LENGTH:
            return None
        info = PRIMARY_MAP[code[cursor]]
        if info.format is not Format.PREFIX:
            break
        cursor += 1
    if info.format is Format.ESCAPE:
        cursor += 1
        if cursor >= end:
            return None
        info = SECONDARY_MAP[code[cursor]]
    if info.format is Format.INVALID:
        return None
    cursor += 1
    kind = info.kind
    rel = None
    if info.format in (Format.FIXED, Format.RET):
        cursor += info.imm_bytes
    elif info.format is Format.REL:
        if cursor + info.imm_bytes > end:
            return None
        rel = int.from_bytes(code[cursor:cursor + info.imm_bytes], "little",
                             signed=True)
        cursor += info.imm_bytes
        rel += cursor - offset
    else:  # MODRM, GROUP_FF
        if cursor >= end:
            return None
        sib = code[cursor + 1] if cursor + 1 < end else None
        tail = modrm_tail_length(code[cursor], sib)
        if tail is None:
            return None
        if info.format is Format.GROUP_FF:
            kind = ff_group_kind(code[cursor])
        cursor += tail + info.imm_bytes
    length = cursor - offset
    if length > MAX_INSTRUCTION_LENGTH or cursor > end:
        return None
    return length, kind, rel


def _fields_of(decoded):
    """``decode_at``'s result in the core's tuple form."""
    if decoded is None:
        return None
    target = decoded.target
    return (decoded.length, decoded.kind,
            None if target is None else target - decoded.pc)


@given(data=_BYTES, pc=st.integers(0, 2**40))
@settings(max_examples=400)
def test_core_matches_decode_at_at_every_offset_and_limit(data, pc):
    """Every (offset, limit) pair, the limit running from the start
    byte to past the buffer end, so REL immediates, SIB bytes and
    prefix runs land on both sides of it."""
    for offset in range(len(data)):
        for limit in range(offset + 1, len(data) + 2):
            end = min(limit, len(data))
            fields = decode_fields(data, offset, end)
            assert fields == _reference_fields(data, offset, end)
            assert fields == _fields_of(
                decode_at(data, offset, pc=pc + offset, limit=limit))


@given(prefixes=st.lists(st.sampled_from([0x66, 0x48, 0x40, 0x4F, 0xF3]),
                         min_size=0, max_size=16),
       opcode=st.sampled_from([0x90, 0xEB, 0xE8, 0xC3, 0xFF, 0x0F]),
       tail=st.binary(min_size=0, max_size=6))
@settings(max_examples=300)
def test_prefix_runs_match_decode_at(prefixes, opcode, tail):
    """Prefix runs around the 15-byte architectural limit."""
    data = bytes(prefixes) + bytes([opcode]) + tail
    for limit in range(1, len(data) + 1):
        fields = decode_fields(data, 0, limit)
        assert fields == _reference_fields(data, 0, limit)
        assert fields == _fields_of(decode_at(data, 0, limit=limit))


def _line_vectors_digest(program) -> str:
    """SHA-256 over every line's per-offset ``(length, kind name,
    target - pc)`` vector, decoded against the line end."""
    sbd = ShadowBranchDecoder(program.image, program.base_address,
                              SkiaConfig(), shared=False)
    hasher = hashlib.sha256()
    base = program.base_address
    for line in range(base, base + len(program.image), 64):
        vector = [None if fields is None
                  else (fields[0], fields[1].name, fields[2])
                  for fields in sbd._decode_line(line)]
        hasher.update(repr(vector).encode())
    return hasher.hexdigest()


#: The digest of the same vectors built with the per-offset
#: ``decode_at`` loop that preceded the table-driven core.
GOLDEN_CHIRPER_LINES = (
    "807ccb89fb461fa5fa19a25df5e9007f77faf8bc04bd0d9d9767528901afea6d")


@pytest.fixture(scope="module")
def chirper():
    return ProgramGenerator(get_profile("finagle-chirper"), seed=0).generate()


def test_program_line_vectors_match_recorded_decode_at(chirper):
    assert _line_vectors_digest(chirper) == GOLDEN_CHIRPER_LINES


def test_decode_at_wraps_the_core_for_every_line_offset(chirper):
    program = chirper
    image = program.image
    sbd = ShadowBranchDecoder(image, program.base_address, SkiaConfig(),
                              shared=False)
    for line_start in range(0, len(image), 64):
        end = min(line_start + 64, len(image))
        vector = sbd._decode_line(program.base_address + line_start)
        for offset in range(line_start, end):
            decoded = decode_at(image, offset,
                                pc=program.base_address + offset, limit=end)
            assert vector[offset - line_start] == _fields_of(decoded)
