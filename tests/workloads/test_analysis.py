"""Workload characterisation module."""

from repro.workloads.analysis import (
    branch_reuse_profile,
    characterise,
    shadow_geometry,
)


def branch_for(pc: int) -> int:
    """The branch pc of a block starting at ``pc``."""
    return pc + 4


class TestReuseProfile:
    def test_no_recurrence(self):
        branches = [branch_for(i * 64) for i in range(10)]
        profile = branch_reuse_profile(branches)
        assert profile.samples == 0

    def test_tight_loop_distance_zero(self):
        branches = [branch_for(0)] * 10
        profile = branch_reuse_profile(branches)
        assert profile.samples == 9
        assert profile.median == 0

    def test_round_robin_distance(self):
        """A..E repeated: each recurrence sees 4 distinct others."""
        base = [branch_for(i * 64) for i in range(5)]
        profile = branch_reuse_profile(base * 4)
        assert profile.median == 4
        assert profile.p90 == 4

    def test_cold_fraction(self):
        base = [branch_for(i * 64) for i in range(50)]
        profile = branch_reuse_profile(base * 3, btb_entries=10)
        assert profile.over_8k_fraction == 1.0  # every reuse spans 49 > 10

    def test_mixed_hot_cold(self):
        hot = branch_for(0)
        colds = [branch_for((i + 1) * 64) for i in range(30)]
        stream = []
        for cold in colds * 2:
            stream.extend([hot, cold])
        profile = branch_reuse_profile(stream, btb_entries=10)
        assert 0.0 < profile.over_8k_fraction < 1.0


class TestShadowGeometry:
    def test_counts_on_generated_program(self, micro_program):
        geometry = shadow_geometry(micro_program)
        assert geometry.total_branches == sum(
            1 for _ in micro_program.iter_blocks())
        assert geometry.tail_shadow_candidates > 0
        assert geometry.head_shadow_candidates > 0
        assert 0 < geometry.eligible_fraction < 1

    def test_fractions_bounded(self, micro_program):
        geometry = shadow_geometry(micro_program)
        assert 0.0 <= geometry.tail_fraction <= 1.0


class TestCharacterise:
    def test_report(self, micro_program, micro_trace):
        report = characterise(micro_program, micro_trace.prefix(4_000))
        assert report.name == "micro"
        assert report.footprint_bytes == len(micro_program.image)
        assert sum(report.dynamic_mix.values()) == 4_000
        text = report.render()
        assert "dynamic mix" in text
        assert "branch reuse" in text

    def test_real_workload_has_cold_recurrences(self, micro_program,
                                                micro_trace):
        """The micro workload is small; verify the machinery sees *some*
        recurrence structure (full-size workloads are checked in the
        calibration benchmarks)."""
        report = characterise(micro_program, micro_trace)
        assert report.reuse.samples > 0
