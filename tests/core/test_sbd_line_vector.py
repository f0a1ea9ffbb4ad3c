"""The SBD's per-line vectors come from the one decode core and build
no :class:`DecodedInstruction` objects."""

from repro.core import decode_tables
from repro.core import sbd as sbd_module
from repro.core.sbd import ShadowBranchDecoder
from repro.frontend.config import SkiaConfig
from repro.isa import decoder as decoder_module
from repro.isa.decoder import decode_at
from repro.isa.instruction import DecodedInstruction


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _sweep(program, shared):
    sbd = ShadowBranchDecoder(program.image, program.base_address,
                              SkiaConfig(), shared=shared)
    base = program.base_address
    found = 0
    for line in range(base, base + len(program.image), 64):
        for offset in (1, 7, 23, 41, 63):
            found += len(sbd.decode_head(line + offset).decoded_pcs)
            found += len(sbd.decode_tail(line + offset).decoded_pcs)
    return found


def test_cold_sweep_builds_no_decoded_instruction(monkeypatch,
                                                  micro_program):
    constructed = _count_calls(monkeypatch, DecodedInstruction,
                               "__post_init__")
    decode_tables.reset()
    try:
        assert _sweep(micro_program, shared=True) > 0
        assert _sweep(micro_program, shared=False) > 0
    finally:
        decode_tables.reset()
    assert constructed == []
    # The counter does see the wrapper's objects.
    decode_at(micro_program.image, 0)
    assert len(constructed) == 1


def test_line_vector_and_decode_at_share_the_core(monkeypatch,
                                                  micro_program):
    core_calls = _count_calls(monkeypatch, decoder_module, "decode_fields")
    monkeypatch.setattr(sbd_module, "decode_fields",
                        decoder_module.decode_fields)
    sbd = ShadowBranchDecoder(micro_program.image,
                              micro_program.base_address, SkiaConfig(),
                              shared=False)
    sbd.decode_tail(micro_program.base_address + 3)
    assert len(core_calls) == 64  # every offset of the first line
    decode_at(micro_program.image, 0)
    assert len(core_calls) == 65


def test_line_vectors_allocate_only_direct_branch_entries(micro_program):
    # A targetless entry is one of a fixed set of shared tuples, so the
    # line vectors add no per-offset objects for the cyclic garbage
    # collector to scan beyond their direct branches.
    sbd = ShadowBranchDecoder(micro_program.image,
                              micro_program.base_address, SkiaConfig(),
                              shared=False)
    base = micro_program.base_address
    entries = [entry
               for line in range(base, base + len(micro_program.image), 64)
               for entry in sbd._line_decodes(line) if entry is not None]
    targetless = [entry for entry in entries if entry[2] is None]
    assert len(targetless) > 1_000
    shapes = {(length, kind) for length, kind, _ in targetless}
    assert len({id(entry) for entry in targetless}) == len(shapes)
