"""Layout engine: address assignment, relaxation, emission."""

import random

import pytest

from repro.isa.branch import BranchKind
from repro.isa.decoder import decode_at
from repro.isa.encoder import Encoder
from repro.workloads.layout import PAD_BYTE, lay_out
from repro.workloads.program import BasicBlock, Function
from tests.workloads.generation_golden import fillers


def fill(encoder, rng, block, body_lengths):
    """Give ``block`` a filler run of the given instruction lengths."""
    block.body = b"".join(encoder.filler(rng, length)
                          for length in body_lengths)
    block.body_lengths = bytes(body_lengths)


def spans(block):
    """``(pc, encoding)`` of every instruction, terminator last."""
    return list(fillers(block)) + [(block.terminator.pc,
                                     bytes(block.terminator.encoding))]


def build_chain(encoder, rng, n_blocks, body_lengths=(2, 3)):
    """A single function: chain of filler blocks ending in ret."""
    blocks = []
    for index in range(n_blocks):
        block = BasicBlock(label=index)
        fill(encoder, rng, block, body_lengths)
        blocks.append(block)
    for first, second in zip(blocks, blocks[1:]):
        first.fallthrough_label = second.label
        first.terminator = encoder.uncond_jmp(rng, second.label, wide=False)
    blocks[-1].terminator = encoder.ret(rng)
    return Function(name="chain", blocks=blocks)


class TestLayOut:
    def test_addresses_contiguous(self, encoder, rng):
        function = build_chain(encoder, rng, 4)
        image = lay_out([function], 0x1000, 1, encoder, rng)
        cursor = 0x1000
        for block in function.blocks:
            assert block.start_pc == cursor
            for pc, encoding in spans(block):
                assert pc == cursor
                cursor += len(encoding)
        assert len(image) == cursor - 0x1000

    def test_image_bytes_match(self, encoder, rng):
        function = build_chain(encoder, rng, 3)
        image = lay_out([function], 0, 1, encoder, rng)
        for block in function.blocks:
            for pc, encoding in spans(block):
                assert image[pc:pc + len(encoding)] == encoding

    def test_jmps_patched(self, encoder, rng):
        function = build_chain(encoder, rng, 3)
        image = lay_out([function], 0x2000, 1, encoder, rng)
        for block in function.blocks[:-1]:
            terminator = block.terminator
            decoded = decode_at(image, terminator.pc - 0x2000,
                                pc=terminator.pc)
            target = function.blocks[block.label + 1]
            assert decoded.target == target.start_pc

    def test_alignment_pads_with_nops(self, encoder, rng):
        functions = [build_chain(encoder, rng, 1) for _ in range(2)]
        functions[1].blocks[0].label = 100
        functions[1] = Function(name="second",
                                blocks=functions[1].blocks)
        image = lay_out(functions, 0, 32, encoder, rng)
        second_start = functions[1].blocks[0].start_pc
        assert second_start % 32 == 0
        first_end = (functions[0].blocks[-1].start_pc
                     + functions[0].blocks[-1].size)
        for offset in range(first_end, second_start):
            assert image[offset] == PAD_BYTE

    def test_relaxation_widens_short_branch(self, encoder, rng):
        """A rel8 jmp over >127 bytes must be widened to rel32."""
        first = BasicBlock(label=0)
        first.terminator = encoder.uncond_jmp(rng, 2, wide=False)
        middle = BasicBlock(label=1)
        fill(encoder, rng, middle, [11] * 30)
        middle.terminator = encoder.ret(rng)
        last = BasicBlock(label=2)
        last.terminator = encoder.ret(rng)
        function = Function(name="wide", blocks=[first, middle, last])
        image = lay_out([function], 0, 1, encoder, rng)
        terminator = first.terminator
        assert terminator.length == 5  # widened to rel32
        decoded = decode_at(image, terminator.pc, pc=terminator.pc)
        assert decoded.target == last.start_pc

    def test_cond_relaxation(self, encoder, rng):
        first = BasicBlock(label=0)
        first.terminator = encoder.cond_branch(rng, 2, wide=False)
        middle = BasicBlock(label=1)
        fill(encoder, rng, middle, [11] * 40)
        middle.terminator = encoder.ret(rng)
        last = BasicBlock(label=2)
        last.terminator = encoder.ret(rng)
        first.fallthrough_label = 1
        function = Function(name="wide", blocks=[first, middle, last])
        lay_out([function], 0, 1, encoder, rng)
        assert first.terminator.length == 6  # 0x0F Jcc rel32
        assert first.terminator.kind is BranchKind.DIRECT_COND

    def test_base_address_respected(self, encoder, rng):
        function = build_chain(encoder, rng, 2)
        lay_out([function], 0x400000, 1, encoder, rng)
        assert function.blocks[0].start_pc == 0x400000


class TestErrorPaths:
    def test_unknown_target_label_raises(self, encoder, rng):
        block = BasicBlock(label=0)
        block.terminator = encoder.uncond_jmp(rng, 999)
        function = Function(name="broken", blocks=[block])
        with pytest.raises(KeyError):
            lay_out([function], 0, 1, encoder, rng)
