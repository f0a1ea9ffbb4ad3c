"""Cross-cutting invariants on full simulations (micro workload)."""

import pytest

from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.isa.branch import BranchKind
from tests.conftest import simulate
from tests.workloads.records import as_records


@pytest.fixture(scope="module")
def small_btb_skia(micro_program, micro_trace):
    """A pressured configuration: 256-entry BTB + Skia."""
    config = FrontEndConfig(skia=SkiaConfig()).with_btb_entries(256)
    return simulate(micro_program, micro_trace, config, warmup=2_000)


class TestAccountingInvariants:
    def test_sbb_hits_bounded_by_eligible_misses(self, small_btb_skia):
        stats = small_btb_skia
        eligible_misses = sum(
            count for kind, count in stats.btb_misses.items()
            if kind.sbb_eligible)
        # Hits can also land on non-eligible branches via aliasing, but
        # never exceed total misses.
        assert stats.total_sbb_hits <= stats.total_btb_misses
        assert eligible_misses <= stats.total_btb_misses

    def test_retired_marks_bounded_by_hits(self, small_btb_skia):
        assert small_btb_skia.sbb_retired_marks <= (
            small_btb_skia.total_sbb_hits)

    def test_wrong_targets_bounded_by_hits(self, small_btb_skia):
        assert small_btb_skia.sbb_wrong_target <= (
            small_btb_skia.total_sbb_hits)

    def test_bogus_bounded_by_insertions(self, small_btb_skia):
        assert small_btb_skia.sbb_bogus_insertions <= (
            small_btb_skia.total_sbb_insertions)

    def test_pollution_happens_under_pressure(self, small_btb_skia):
        assert small_btb_skia.wrong_path_fills > 0

    def test_resteer_kinds_partition(self, small_btb_skia):
        stats = small_btb_skia
        total_resteers = stats.decode_resteers + stats.exec_resteers
        assert total_resteers <= sum(stats.branches.values())

    def test_mispredict_counters_consistent(self, small_btb_skia):
        stats = small_btb_skia
        assert stats.cond_mispredicts <= stats.cond_predictions
        assert stats.indirect_mispredicts <= stats.indirect_predictions
        assert stats.ras_mispredicts <= stats.ras_predictions

    def test_branch_kind_totals(self, small_btb_skia, micro_trace):
        stats = small_btb_skia
        for kind in BranchKind:
            if not kind.is_branch:
                continue
            expected = sum(1 for record in as_records(micro_trace)[2_000:]
                           if record.kind is kind)
            assert stats.branches[kind] == expected


class TestComposition:
    def test_skia_plus_comparator_coexist(self, micro_program, micro_trace):
        """Skia and a comparator can be enabled together; the comparator
        is probed before the SBB (both behind the BTB)."""
        config = FrontEndConfig(
            skia=SkiaConfig(), comparator="airbtb").with_btb_entries(256)
        stats = simulate(micro_program, micro_trace, config, warmup=2_000)
        assert stats.comparator_hits > 0
        assert stats.total_sbb_hits > 0

    def test_skia_on_infinite_btb_is_noop_ish(self, micro_program,
                                              micro_trace):
        """With an infinite BTB only compulsory misses remain; Skia's
        only possible wins are first-sight branches."""
        infinite = FrontEndConfig(skia=SkiaConfig()).with_btb_entries(
            1 << 20, infinite=True)
        stats = simulate(micro_program, micro_trace, infinite, warmup=2_000)
        assert stats.total_sbb_hits <= stats.total_btb_misses

    def test_disable_everything_still_runs(self, micro_program,
                                           micro_trace):
        config = FrontEndConfig(use_loop_predictor=False,
                                pollution_max_lines=0)
        stats = simulate(micro_program, micro_trace, config, warmup=2_000)
        assert stats.wrong_path_fills == 0
        assert stats.ipc > 0

    def test_head_tail_hits_sum_close_to_both(self, micro_program,
                                              micro_trace):
        """Head-only and tail-only coverage roughly composes (they
        overlap only where both regions contain the same branch)."""
        small = FrontEndConfig().with_btb_entries(256)
        head = simulate(micro_program, micro_trace,
                        small.with_skia(SkiaConfig(decode_tails=False)),
                        warmup=2_000)
        tail = simulate(micro_program, micro_trace,
                        small.with_skia(SkiaConfig(decode_heads=False)),
                        warmup=2_000)
        both = simulate(micro_program, micro_trace,
                        small.with_skia(SkiaConfig()), warmup=2_000)
        assert both.total_sbb_hits >= max(head.total_sbb_hits,
                                          tail.total_sbb_hits)
