"""Property-based tests: generated programs/traces are always coherent."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.decoder import decode_at
from repro.workloads.codegen import ProgramGenerator
from tests.conftest import generate_trace, make_profile
from tests.workloads.generation_golden import fillers
from tests.workloads.records import as_records


@st.composite
def tiny_profiles(draw):
    return make_profile(
        n_handlers=draw(st.integers(3, 12)),
        n_lib_funcs=draw(st.integers(2, 10)),
        handler_blocks=(draw(st.integers(2, 4)), draw(st.integers(5, 9))),
        lib_blocks=(2, draw(st.integers(2, 5))),
        block_instrs=(1, draw(st.integers(2, 6))),
        p_call_block=draw(st.floats(0.05, 0.5)),
        p_cond_block=draw(st.floats(0.1, 0.7)),
        p_jmp_block=draw(st.floats(0.05, 0.3)),
        p_loop_backedge=draw(st.floats(0.0, 0.4)),
        p_pattern_cond=draw(st.floats(0.0, 0.8)),
        function_alignment=draw(st.sampled_from([1, 16])),
        layout_policy=draw(st.sampled_from(["scatter", "shuffle"])),
    )


@given(profile=tiny_profiles(), seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_generated_program_is_coherent(profile, seed):
    program = ProgramGenerator(profile, seed=seed).generate()
    # Layout covers the image exactly and all branches are patched.
    for block in program.iter_blocks():
        assert sum(block.body_lengths) == len(block.body)
        for pc, encoding in fillers(block):
            assert program.bytes_at(pc, len(encoding)) == encoding
        terminator = block.terminator
        assert (program.bytes_at(terminator.pc, terminator.length)
                == bytes(terminator.encoding))
        if terminator.rel_width and terminator.target_label is not None:
            decoded = decode_at(program.image,
                                terminator.pc - program.base_address,
                                pc=terminator.pc)
            assert decoded.target == program.block(
                terminator.target_label).start_pc


@given(profile=tiny_profiles(), seed=st.integers(0, 1000),
       trace_seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_trace_oracle_always_consistent(profile, seed, trace_seed):
    """For any generated program and seed, every trace record's branch
    agrees with the byte image, and the stream is connected."""
    program = ProgramGenerator(profile, seed=seed).generate()
    records = as_records(generate_trace(program, 400, seed=trace_seed))
    previous_next = program.entry_block.start_pc
    for record in records:
        assert record.block_start == previous_next
        decoded = decode_at(program.image,
                            record.branch_pc - program.base_address,
                            pc=record.branch_pc)
        assert decoded is not None
        assert decoded.kind is record.kind
        assert decoded.length == record.branch_len
        previous_next = record.next_pc
