"""Trace generation: the correct-path oracle must agree with the image."""

from collections import Counter

import pytest

from repro.isa.branch import BranchKind
from repro.isa.decoder import decode_at
from repro.workloads.analysis import characterise
from tests.conftest import generate_trace
from tests.workloads.records import as_records


@pytest.fixture(scope="module")
def records(micro_trace):
    return as_records(micro_trace)


class TestOracleConsistency:
    def test_branch_records_match_image(self, micro_program, records):
        """Every record's branch decodes from the image with the same
        kind, length and (for direct branches) target."""
        for record in records[:3000]:
            decoded = decode_at(
                micro_program.image,
                record.branch_pc - micro_program.base_address,
                pc=record.branch_pc)
            assert decoded is not None
            assert decoded.kind is record.kind
            assert decoded.length == record.branch_len
            if record.kind.is_direct:
                assert decoded.target == record.target

    def test_next_pc_semantics(self, records):
        for record in records:
            if record.taken:
                assert record.next_pc == record.target
            else:
                assert record.next_pc == record.fallthrough

    def test_stream_is_connected(self, records):
        for current, following in zip(records, records[1:]):
            assert current.next_pc == following.block_start

    def test_fallthrough_is_branch_end(self, records):
        for record in records:
            assert record.fallthrough == record.branch_pc + record.branch_len

    def test_unconditional_always_taken(self, records):
        for record in records:
            if record.kind is not BranchKind.DIRECT_COND:
                assert record.taken

    def test_blocks_start_at_instruction_boundaries(self, micro_program,
                                                    records):
        for record in records[:2000]:
            assert micro_program.is_instruction_start(record.block_start)
            assert micro_program.is_instruction_start(record.branch_pc)


class TestCallReturnMatching:
    def test_returns_go_to_call_sites(self, records):
        """Simulate a perfect stack over the record stream: every return
        must target the fallthrough of the matching call."""
        stack = []
        for record in records:
            if record.kind.is_call:
                stack.append(record.fallthrough)
            elif record.kind is BranchKind.RETURN:
                assert stack, "return without a call"
                assert record.target == stack.pop()


class TestDeterminism:
    def test_same_seed_same_trace(self, micro_program):
        first = as_records(generate_trace(micro_program, 2000, seed=5))
        second = as_records(generate_trace(micro_program, 2000, seed=5))
        assert first == second

    def test_different_seed_differs(self, micro_program):
        first = as_records(generate_trace(micro_program, 2000, seed=5))
        second = as_records(generate_trace(micro_program, 2000, seed=6))
        assert first != second

    def test_prefix_property(self, micro_program):
        """records(n) is a prefix of records(2n) -- generation is
        streaming, not length-dependent."""
        short = as_records(generate_trace(micro_program, 1000, seed=5))
        long = as_records(generate_trace(micro_program, 2000, seed=5))
        assert long[:1000] == short


class TestLoopAndPatternDeterminism:
    def test_loop_backedge_trip_counts(self, micro_program):
        """A loop back-edge is taken exactly (trip-1) consecutive times."""
        records = as_records(generate_trace(micro_program, 30_000, seed=9))
        loop_blocks = {b.start_pc: b.loop_trip
                       for b in micro_program.iter_blocks()
                       if b.loop_trip is not None}
        runs: dict[int, list[int]] = {}
        current: dict[int, int] = {}
        for record in records:
            trip = loop_blocks.get(record.block_start)
            if trip is None:
                continue
            if record.taken:
                current[record.block_start] = current.get(
                    record.block_start, 0) + 1
            else:
                runs.setdefault(record.block_start, []).append(
                    current.pop(record.block_start, 0))
        checked = 0
        for start, observed in runs.items():
            trip = loop_blocks[start]
            for consecutive_takes in observed[1:-1]:
                # Every completed loop execution takes the back-edge
                # exactly trip-1 times (break-outs via pattern branches
                # can shorten the count, never lengthen it).
                assert consecutive_takes <= trip - 1
                checked += 1
        assert checked > 0

    def test_pattern_blocks_follow_pattern(self, micro_program):
        records = as_records(generate_trace(micro_program, 30_000, seed=9))
        pattern_blocks = {b.start_pc: (b.pattern_bits, b.pattern_len)
                          for b in micro_program.iter_blocks()
                          if b.pattern_bits is not None}
        visit: dict[int, int] = {}
        checked = 0
        for record in records:
            spec = pattern_blocks.get(record.block_start)
            if spec is None:
                continue
            bits, length = spec
            index = visit.get(record.block_start, 0)
            assert record.taken == bool((bits >> index) & 1)
            visit[record.block_start] = (index + 1) % length
            checked += 1
        assert checked > 0


class TestIndirectBehaviour:
    def test_indirect_targets_are_candidates(self, micro_program):
        records = as_records(generate_trace(micro_program, 10_000, seed=2))
        candidates = {
            block.start_pc: {micro_program.block(label).start_pc
                             for label, _ in block.indirect_targets}
            for block in micro_program.iter_blocks()
            if block.indirect_targets
        }
        for record in records:
            if record.kind.is_indirect:
                assert record.target in candidates[record.block_start]

    def test_run_stickiness(self, micro_program):
        """With a (5,5) run range every 5 consecutive dispatches share a
        target."""
        records = as_records(generate_trace(micro_program, 20_000, seed=2,
                                            dispatch_run_range=(5, 5)))
        dispatch_targets = [r.target for r in records
                            if r.kind is BranchKind.INDIRECT_CALL]
        for index in range(0, len(dispatch_targets) - 5, 5):
            run = dispatch_targets[index:index + 5]
            assert len(set(run)) == 1


class TestStatistics:
    def test_empty(self, micro_program, micro_trace):
        report = characterise(micro_program, micro_trace.prefix(0))
        assert sum(report.dynamic_mix.values()) == 0
        assert report.reuse.samples == 0

    def test_counts(self, micro_program, micro_trace, records):
        report = characterise(micro_program, micro_trace)
        assert sum(report.dynamic_mix.values()) == len(records)
        assert report.dynamic_mix == Counter(r.kind for r in records)
        assert 0 < sum(micro_trace.taken) <= len(records)
        assert report.reuse.samples > 0

    def test_kind_mix_sane(self, records):
        kinds = Counter(r.kind for r in records)
        assert kinds[BranchKind.RETURN] > 0
        assert kinds[BranchKind.CALL] > 0
        assert kinds[BranchKind.DIRECT_COND] > 0
