"""Timeline-arithmetic tests with hand-crafted record streams.

These pin the engine's cycle accounting: steady-state throughput, miss
latency hiding by FDIP runahead, and resteer bubbles.
"""

import pytest

from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import FrontEndSimulator
from repro.isa.branch import BranchKind
from tests.workloads.records import BlockRecord, from_records


def loop_record(pc=0x400000, n_instr=4, branch_offset=16):
    """A single block that jumps back to itself (one 64B line)."""
    branch_pc = pc + branch_offset
    return BlockRecord(block_start=pc, n_instr=n_instr, branch_pc=branch_pc,
                       branch_len=5, kind=BranchKind.DIRECT_UNCOND,
                       taken=True, target=pc, fallthrough=branch_pc + 5,
                       next_pc=pc)


def chain_records(count, start=0x400000, stride=64, n_instr=4):
    """`count` blocks, one per line, each jumping to the next; the last
    jumps back to the first (a big loop)."""
    records = []
    for index in range(count):
        pc = start + index * stride
        target = start + ((index + 1) % count) * stride
        branch_pc = pc + 16
        records.append(BlockRecord(
            block_start=pc, n_instr=n_instr, branch_pc=branch_pc,
            branch_len=5, kind=BranchKind.DIRECT_UNCOND, taken=True,
            target=target, fallthrough=branch_pc + 5, next_pc=target))
    return records


@pytest.fixture()
def simulator(micro_program):
    # The program is only consulted by Skia (disabled here); the records
    # are hand-crafted.
    return FrontEndSimulator(micro_program, FrontEndConfig())


class TestSteadyState:
    def test_hot_loop_throughput_is_one_block_per_cycle(self, simulator):
        """Everything hits: the front-end sustains 1 block/cycle, so
        IPC equals instructions per block."""
        records = [loop_record()] * 3_000
        stats = simulator.run_compiled(from_records(records), warmup=1_000)
        cycles_per_block = stats.cycles / stats.blocks
        assert cycles_per_block == pytest.approx(1.0, abs=0.05)
        assert stats.ipc == pytest.approx(4.0, rel=0.05)

    def test_retire_bound_when_blocks_are_huge(self, micro_program):
        """A 40-instruction block retires in 40/width cycles, making the
        back-end the bottleneck."""
        config = FrontEndConfig(backend_effective_width=4.0)
        simulator = FrontEndSimulator(micro_program, config)
        records = [loop_record(n_instr=40)] * 2_000
        stats = simulator.run_compiled(from_records(records), warmup=500)
        assert stats.ipc == pytest.approx(4.0, rel=0.05)

    def test_decoder_never_idle_in_steady_loop(self, simulator):
        records = [loop_record()] * 3_000
        stats = simulator.run_compiled(from_records(records), warmup=1_000)
        assert stats.decoder_idle_cycles < stats.cycles * 0.02


class TestLatencyHiding:
    def test_big_loop_fits_l1_after_warmup(self, simulator):
        """A 64-line loop fits the 32KB L1-I: after one traversal there
        are no more instruction misses."""
        records = chain_records(64) * 40
        stats = simulator.run_compiled(from_records(records), warmup=640)
        assert stats.l1i_misses == 0

    def test_l2_resident_loop_mostly_hidden_by_runahead(self, micro_program):
        """A loop bigger than L1 but inside L2 misses constantly, yet
        FDIP runahead (24-entry FTQ, 1 block/cycle IAG) hides most of
        the 14-cycle L2 latency."""
        config = FrontEndConfig()
        simulator = FrontEndSimulator(micro_program, config)
        n_lines = (config.l1i_size // 64) * 3  # 3x the L1-I capacity
        records = chain_records(n_lines) * 6
        stats = simulator.run_compiled(from_records(records),
                                       warmup=n_lines)
        assert stats.l1i_misses > 0
        # Without any hiding each miss would add ~14 cycles to its
        # block; require at least half hidden.
        cycles_per_block = stats.cycles / stats.blocks
        assert cycles_per_block < 1.0 + config.l2_latency * 0.5

    def test_fetch_stalls_recorded_on_cold_start(self, simulator):
        records = chain_records(200)
        stats = simulator.run_compiled(from_records(records), warmup=0)
        assert stats.fetch_stall_cycles > 0


class TestResteerCosts:
    def test_compulsory_miss_costs_a_bubble(self, simulator):
        """First-ever taken jump: a decode resteer whose bubble shows up
        in decoder idle cycles."""
        records = [loop_record()] * 100
        stats = simulator.run_compiled(from_records(records), warmup=0)
        assert stats.decode_resteers == 1  # only the first encounter
        assert stats.decoder_idle_cycles > 0

    def test_decode_resteer_bubble_size(self, micro_program):
        """Isolate one resteer and check the bubble is repair + refill
        deep (roughly iag->fetch + fetch + fetch->decode + repair)."""
        config = FrontEndConfig()
        simulator = FrontEndSimulator(micro_program, config)
        records = [loop_record()] * 400
        baseline_like = FrontEndSimulator(micro_program, config)
        warm = baseline_like.run_compiled(
            from_records([loop_record()] * 400), warmup=399)
        cold = simulator.run_compiled(from_records([loop_record()] * 400),
                                      warmup=0)
        # One resteer across 400 blocks: average extra cycles per block
        # times blocks gives the bubble; bound it loosely.
        bubble = cold.cycles - 400 * (warm.cycles / warm.blocks)
        expected_min = config.decode_repair_cycles
        expected_max = 40 + config.memory_latency  # incl. cold fills
        assert expected_min <= bubble <= expected_max

    def test_exec_resteer_costs_more_than_decode(self, micro_program):
        """Alternate two block PCs so each is seen once (compulsory);
        compare an indirect-heavy stream (exec resteers) against a
        direct-jump stream (decode resteers)."""
        config = FrontEndConfig()

        def stream(kind):
            records = []
            for index in range(3_000):
                pc = 0x400000 + (index % 1500) * 128
                target = 0x400000 + ((index % 1500 + 1) % 1500) * 128
                records.append(BlockRecord(
                    block_start=pc, n_instr=4, branch_pc=pc + 16,
                    branch_len=5, kind=kind, taken=True, target=target,
                    fallthrough=pc + 21, next_pc=target))
            return records

        direct = FrontEndSimulator(micro_program, config).run_compiled(
            from_records(stream(BranchKind.DIRECT_UNCOND)), warmup=0)
        indirect = FrontEndSimulator(micro_program, config).run_compiled(
            from_records(stream(BranchKind.INDIRECT_UNCOND)), warmup=0)
        assert indirect.cycles > direct.cycles


class TestFTQBackpressure:
    def test_tiny_ftq_hurts_when_misses_need_hiding(self, micro_program):
        config_small = FrontEndConfig(ftq_size=2)
        config_large = FrontEndConfig(ftq_size=24)
        n_lines = (32 * 1024 // 64) * 3
        records = chain_records(n_lines) * 5
        small = FrontEndSimulator(micro_program, config_small).run_compiled(
            from_records(records), warmup=n_lines)
        large = FrontEndSimulator(micro_program, config_large).run_compiled(
            from_records(records), warmup=n_lines)
        assert large.cycles <= small.cycles
