"""Code generator edge cases."""

from repro.isa.branch import BranchKind
from repro.workloads.codegen import ProgramGenerator
from tests.conftest import generate_trace, make_profile
from tests.workloads.records import as_records


class TestDegenerateProfiles:
    def test_single_library(self):
        """The last library cannot call a later one; such calls are
        demoted to jumps and the program stays well-formed."""
        profile = make_profile(n_handlers=4, n_lib_funcs=1,
                               p_call_block=0.9, p_cond_block=0.05,
                               p_jmp_block=0.05)
        program = ProgramGenerator(profile, seed=0).generate()
        lib = next(f for f in program.functions if f.name == "lib_0")
        for block in lib.blocks:
            terminator = block.terminator
            if terminator.kind is BranchKind.CALL:
                # Any surviving call must target a real entry.
                assert terminator.target_label in {
                    f.entry_label for f in program.functions}
        # Trace generation terminates without underflow.
        trace = generate_trace(program, 2_000)
        assert len(trace) == 2_000

    def test_minimum_blocks_per_function(self):
        profile = make_profile(handler_blocks=(1, 1), lib_blocks=(1, 1))
        program = ProgramGenerator(profile, seed=0).generate()
        for function in program.functions:
            assert len(function.blocks) >= 2  # clamped to 2

    def test_no_loops_no_patterns(self):
        profile = make_profile(p_loop_backedge=0.0, p_pattern_cond=0.0)
        program = ProgramGenerator(profile, seed=0).generate()
        assert all(b.loop_trip is None for b in program.iter_blocks())
        assert all(b.pattern_bits is None for b in program.iter_blocks())

    def test_all_cond_terminators(self):
        profile = make_profile(p_cond_block=1.0, p_jmp_block=0.0,
                               p_call_block=0.0, p_indirect_jmp_block=0.0,
                               p_early_ret_block=0.0, p_loop_backedge=0.0,
                               p_pattern_cond=0.0)
        program = ProgramGenerator(profile, seed=0).generate()
        records = as_records(generate_trace(program, 3_000))
        kinds = {record.kind for record in records}
        # Conditionals dominate but rets and the dispatcher remain.
        assert BranchKind.DIRECT_COND in kinds
        assert BranchKind.RETURN in kinds

    def test_handler_pool_of_one(self):
        profile = make_profile(n_handlers=1, n_lib_funcs=2)
        program = ProgramGenerator(profile, seed=0).generate()
        trace = generate_trace(program, 1_000)
        assert len(trace) == 1_000

    def test_sixteen_byte_alignment_with_scatter(self):
        profile = make_profile(function_alignment=16,
                               layout_policy="scatter")
        program = ProgramGenerator(profile, seed=0).generate()
        for function in program.functions:
            assert function.blocks[0].start_pc % 16 == 0
