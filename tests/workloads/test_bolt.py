"""BOLT-like reordering pass."""

from repro.isa.decoder import decode_at
from repro.workloads.bolt import bolt_optimize, profile_function_heat
from tests.conftest import generate_trace
from tests.workloads.records import as_records


class TestHeatProfile:
    def test_covers_all_functions(self, micro_program):
        heat = profile_function_heat(micro_program, sample_records=5_000)
        assert set(heat) == {f.name for f in micro_program.functions}

    def test_main_is_hot(self, micro_program):
        heat = profile_function_heat(micro_program, sample_records=5_000)
        median = sorted(heat.values())[len(heat) // 2]
        assert heat["main"] > median


class TestBoltOptimize:
    def test_preserves_functions_and_labels(self, micro_program):
        bolted = bolt_optimize(micro_program, sample_records=5_000)
        assert {f.name for f in bolted.functions} == {
            f.name for f in micro_program.functions}
        assert set(bolted.block_by_label) == set(micro_program.block_by_label)

    def test_entry_function_first(self, micro_program):
        bolted = bolt_optimize(micro_program, sample_records=5_000)
        assert bolted.functions[0].name == "main"

    def test_hot_functions_moved_forward(self, micro_program):
        heat = profile_function_heat(micro_program, seed=0,
                                     sample_records=5_000)
        bolted = bolt_optimize(micro_program, seed=0, sample_records=5_000)
        positions = {f.name: i for i, f in enumerate(bolted.functions)}
        hot = sorted(heat, key=heat.get, reverse=True)[1:6]
        cold = sorted(heat, key=heat.get)[:20]
        average_hot = sum(positions[name] for name in hot) / len(hot)
        average_cold = sum(positions[name] for name in cold) / len(cold)
        assert average_hot < average_cold

    def test_branches_repatched(self, micro_program):
        """After re-layout, every direct branch still decodes to its
        target block's (new) address."""
        bolted = bolt_optimize(micro_program, sample_records=5_000)
        for block in bolted.iter_blocks():
            terminator = block.terminator
            if terminator.rel_width == 0 or terminator.target_label is None:
                continue
            decoded = decode_at(bolted.image,
                                terminator.pc - bolted.base_address,
                                pc=terminator.pc)
            assert decoded.target == bolted.block(
                terminator.target_label).start_pc

    def test_bolted_traces_still_consistent(self, micro_program):
        bolted = bolt_optimize(micro_program, sample_records=5_000)
        records = as_records(generate_trace(bolted, 3_000, seed=1))
        for record in records[:500]:
            decoded = decode_at(bolted.image,
                                record.branch_pc - bolted.base_address,
                                pc=record.branch_pc)
            assert decoded is not None
            assert decoded.kind is record.kind

    def test_hot_code_span_shrinks(self, micro_program):
        """The bytes spanned by the hottest functions shrink after
        bolting -- the whole point of the pass."""
        heat = profile_function_heat(micro_program, seed=0,
                                     sample_records=5_000)
        hottest = sorted(heat, key=heat.get, reverse=True)[:10]

        def span(program):
            starts = [f.blocks[0].start_pc for f in program.functions
                      if f.name in hottest]
            ends = [f.blocks[-1].end_pc for f in program.functions
                    if f.name in hottest]
            return max(ends) - min(starts)

        bolted = bolt_optimize(micro_program, seed=0, sample_records=5_000)
        assert span(bolted) < span(micro_program)

    def test_name_tagged(self, micro_program):
        bolted = bolt_optimize(micro_program, sample_records=5_000)
        assert bolted.name.endswith("+bolt")
