"""Encoder output is always decodable to exactly what was asked for."""

import pytest

from repro.isa.branch import BranchKind
from repro.isa.decoder import decode_at
from repro.isa.opcodes import MAX_INSTRUCTION_LENGTH


class TestFillers:
    @pytest.mark.parametrize("length", range(1, 16))
    def test_exact_length_and_not_branch(self, encoder, rng, length):
        for _ in range(50):
            encoding = encoder.filler(rng, length)
            assert len(encoding) == length
            decoded = decode_at(bytes(encoding), 0)
            assert decoded is not None
            assert decoded.length == length
            assert decoded.kind is BranchKind.NOT_BRANCH

    def test_rejects_zero_length(self, encoder, rng):
        with pytest.raises(ValueError):
            encoder.filler(rng, 0)

    def test_rejects_over_max(self, encoder, rng):
        with pytest.raises(ValueError):
            encoder.filler(rng, MAX_INSTRUCTION_LENGTH + 1)

    def test_variety(self, encoder, rng):
        # The same length should not always produce the same encoding.
        encodings = {bytes(encoder.filler(rng, 3)) for _ in range(100)}
        assert len(encodings) > 10


class TestBranches:
    def test_cond_narrow(self, encoder, rng):
        ins = encoder.cond_branch(rng, target_label=5)
        assert ins.kind is BranchKind.DIRECT_COND
        assert ins.length == 2
        assert ins.rel_width == 1
        assert ins.target_label == 5

    def test_cond_wide(self, encoder, rng):
        ins = encoder.cond_branch(rng, target_label=5, wide=True)
        assert ins.length == 6
        assert ins.rel_width == 4

    def test_jmp_forms(self, encoder, rng):
        assert encoder.uncond_jmp(rng, 1).length == 5
        assert encoder.uncond_jmp(rng, 1, wide=False).length == 2

    def test_call(self, encoder, rng):
        ins = encoder.call(rng, 9)
        assert ins.kind is BranchKind.CALL
        assert ins.length == 5

    def test_ret_forms(self, encoder, rng):
        assert encoder.ret(rng).length == 1
        assert encoder.ret(rng, with_imm=True).length == 3

    def test_indirect_forms(self, encoder, rng):
        assert encoder.indirect_jmp(rng).length == 2
        assert encoder.indirect_jmp(rng, memory=True).length == 6
        assert encoder.indirect_call(rng).length == 2
        assert encoder.indirect_call(rng, memory=True).length == 6

    def test_indirect_kinds_decode(self, encoder, rng):
        jmp = encoder.indirect_jmp(rng)
        call = encoder.indirect_call(rng)
        assert decode_at(bytes(jmp.encoding), 0).kind is (
            BranchKind.INDIRECT_UNCOND)
        assert decode_at(bytes(call.encoding), 0).kind is (
            BranchKind.INDIRECT_CALL)


class TestPatching:
    def test_patch_and_decode_target(self, encoder, rng):
        ins = encoder.call(rng, target_label=1)
        ins.pc = 0x400000
        ins.patch_relative(0x400123)
        decoded = decode_at(bytes(ins.encoding), 0, pc=0x400000)
        assert decoded.target == 0x400123

    def test_patch_backward(self, encoder, rng):
        ins = encoder.uncond_jmp(rng, 1)
        ins.pc = 0x401000
        ins.patch_relative(0x400500)
        decoded = decode_at(bytes(ins.encoding), 0, pc=0x401000)
        assert decoded.target == 0x400500

    def test_rel8_overflow_raises(self, encoder, rng):
        ins = encoder.cond_branch(rng, 1, wide=False)
        ins.pc = 0
        with pytest.raises(OverflowError):
            ins.patch_relative(1000)

    def test_rel8_extremes_fit(self, encoder, rng):
        ins = encoder.cond_branch(rng, 1, wide=False)
        ins.pc = 1000
        ins.patch_relative(1000 + 2 + 127)
        ins.patch_relative(1000 + 2 - 128)

    def test_patch_before_layout_raises(self, encoder, rng):
        ins = encoder.call(rng, 1)
        with pytest.raises(RuntimeError):
            ins.patch_relative(5)

    def test_patch_non_relative_raises(self, encoder, rng):
        ins = encoder.ret(rng)
        ins.pc = 0
        with pytest.raises(RuntimeError):
            ins.patch_relative(5)

    def test_repatching_is_idempotent(self, encoder, rng):
        ins = encoder.call(rng, 1)
        ins.pc = 100
        ins.patch_relative(500)
        first = bytes(ins.encoding)
        ins.patch_relative(500)
        assert bytes(ins.encoding) == first
