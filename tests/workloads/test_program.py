"""Program data-model invariants on the generated micro program."""

import pytest

from repro.isa.branch import BranchKind
from repro.workloads.program import LINE_SIZE, line_of
from tests.workloads.generation_golden import fillers


class TestLineOf:
    def test_alignment(self):
        assert line_of(0) == 0
        assert line_of(63) == 0
        assert line_of(64) == 64
        assert line_of(0x400027) == 0x400000

    def test_line_size_matches_table1(self):
        assert LINE_SIZE == 64


class TestProgramStructure:
    def test_every_block_ends_in_branch(self, micro_program):
        for block in micro_program.iter_blocks():
            assert block.terminator.kind.is_branch

    def test_labels_unique_and_indexed(self, micro_program):
        labels = [b.label for b in micro_program.iter_blocks()]
        assert len(labels) == len(set(labels))
        for label in labels:
            assert micro_program.block(label).label == label

    def test_entry_block_is_main(self, micro_program):
        function = micro_program.function_of_label[micro_program.entry_label]
        assert function.name == "main"

    def test_image_matches_block_bytes(self, micro_program):
        for block in micro_program.iter_blocks():
            assert sum(block.body_lengths) == len(block.body)
            for pc, encoding in fillers(block):
                assert micro_program.bytes_at(pc, len(encoding)) == encoding
            ins = block.terminator
            image_bytes = micro_program.bytes_at(ins.pc, ins.length)
            assert image_bytes == bytes(ins.encoding)

    def test_blocks_laid_out_consecutively_within_function(self, micro_program):
        for function in micro_program.functions:
            for first, second in zip(function.blocks, function.blocks[1:]):
                assert first.end_pc == second.start_pc

    def test_instruction_starts_ground_truth(self, micro_program):
        for block in micro_program.iter_blocks():
            for pc, _ in fillers(block):
                assert micro_program.is_instruction_start(pc)
            assert micro_program.is_instruction_start(block.terminator.pc)

    def test_mid_instruction_not_a_start(self, micro_program):
        # Instructions never overlap in a layout, so a multi-byte
        # instruction's interior bytes are not ground-truth starts.
        checked = 0
        for block in micro_program.iter_blocks():
            spans = list(fillers(block))
            spans.append((block.terminator.pc, block.terminator.encoding))
            for pc, encoding in spans:
                if len(encoding) > 1:
                    assert not micro_program.is_instruction_start(pc + 1)
                    checked += 1
        assert checked > 0

    def test_fallthrough_is_physically_next(self, micro_program):
        for block in micro_program.iter_blocks():
            if block.fallthrough_label is None:
                continue
            fallthrough = micro_program.block(block.fallthrough_label)
            assert fallthrough.start_pc == block.end_pc

    def test_static_branch_counts(self, micro_program):
        counts = micro_program.static_branch_counts()
        assert counts[BranchKind.RETURN] >= len(micro_program.functions) - 1
        assert sum(counts.values()) == sum(
            1 for _ in micro_program.iter_blocks())

    def test_footprint_lines_positive(self, micro_program):
        lines = micro_program.footprint_lines()
        assert lines * 64 >= len(micro_program.image)

    def test_describe_mentions_name(self, micro_program):
        assert "micro" in micro_program.describe()

    def test_duplicate_labels_rejected(self, micro_program):
        from repro.workloads.program import Program
        functions = micro_program.functions
        with pytest.raises(ValueError):
            Program(functions=functions + [functions[-1]],
                    image=micro_program.image,
                    base_address=micro_program.base_address,
                    entry_label=micro_program.entry_label)


class TestBlockProperties:
    def test_size_is_sum_of_lengths(self, micro_program):
        block = next(micro_program.iter_blocks())
        assert block.size == (sum(block.body_lengths)
                              + block.terminator.length)

    def test_num_instructions(self, micro_program):
        block = next(micro_program.iter_blocks())
        assert block.num_instructions == len(list(fillers(block))) + 1
        assert block.num_instructions == len(list(block.instruction_pcs()))

    def test_terminator_is_last(self, micro_program):
        block = next(micro_program.iter_blocks())
        assert block.terminator.pc == max(block.instruction_pcs())
        assert block.terminator.pc + block.terminator.length == block.end_pc
