"""Engine integration tests on the micro workload."""

import pytest

from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from tests.conftest import simulate


@pytest.fixture(scope="module")
def baseline_stats(micro_program, micro_trace):
    return simulate(micro_program, micro_trace, FrontEndConfig(),
                    warmup=2_000)


@pytest.fixture(scope="module")
def skia_stats(micro_program, micro_trace):
    return simulate(micro_program, micro_trace,
                    FrontEndConfig(skia=SkiaConfig()), warmup=2_000)


class TestAccounting:
    def test_counts_post_warmup_records_only(self, micro_trace,
                                             baseline_stats):
        measured = micro_trace.column("n_instr")[2_000:]
        assert baseline_stats.blocks == len(measured)
        assert baseline_stats.instructions == sum(measured)

    def test_ipc_in_sane_range(self, baseline_stats):
        assert 0.1 < baseline_stats.ipc < 12.0

    def test_branch_counts_match_records(self, micro_trace, baseline_stats):
        total = sum(baseline_stats.branches.values())
        assert total == len(micro_trace) - 2_000

    def test_misses_bounded_by_lookups(self, baseline_stats):
        assert baseline_stats.total_btb_misses <= baseline_stats.btb_lookups

    def test_l1i_hit_subset_of_misses(self, baseline_stats):
        assert (baseline_stats.btb_miss_l1i_hit
                <= baseline_stats.total_btb_misses)

    def test_resteers_bounded_by_branches(self, baseline_stats):
        resteers = (baseline_stats.decode_resteers
                    + baseline_stats.exec_resteers)
        assert resteers <= sum(baseline_stats.branches.values())

    def test_decoder_idle_positive(self, baseline_stats):
        assert baseline_stats.decoder_idle_cycles > 0


class TestDeterminism:
    def test_same_run_same_stats(self, micro_program, micro_trace):
        first = simulate(micro_program, micro_trace, FrontEndConfig(),
                         warmup=1_000)
        second = simulate(micro_program, micro_trace, FrontEndConfig(),
                          warmup=1_000)
        assert first.cycles == second.cycles
        assert first.total_btb_misses == second.total_btb_misses


class TestSkiaEffects:
    def test_skia_never_slower(self, baseline_stats, skia_stats):
        # On shadow-friendly synthetic workloads Skia should not lose.
        assert skia_stats.ipc >= baseline_stats.ipc * 0.999

    def test_skia_reduces_decode_resteers(self, baseline_stats, skia_stats):
        assert skia_stats.decode_resteers < baseline_stats.decode_resteers

    def test_skia_reduces_decoder_idle(self, baseline_stats, skia_stats):
        assert (skia_stats.decoder_idle_cycles
                < baseline_stats.decoder_idle_cycles)

    def test_sbb_activity(self, skia_stats):
        assert skia_stats.total_sbb_insertions > 0
        assert skia_stats.total_sbb_hits > 0
        assert skia_stats.sbd_tail_decodes > 0
        assert skia_stats.sbd_head_decodes > 0

    def test_same_btb_miss_count(self, baseline_stats, skia_stats):
        """The SBB does not change raw BTB miss accounting."""
        assert (skia_stats.total_btb_misses
                == baseline_stats.total_btb_misses)

    def test_bogus_rate_small(self, skia_stats):
        assert skia_stats.bogus_insertion_rate < 0.05


class TestConfigurationEffects:
    def test_bigger_btb_fewer_misses(self, micro_program, micro_trace):
        small = simulate(micro_program, micro_trace,
                         FrontEndConfig().with_btb_entries(256),
                         warmup=2_000)
        large = simulate(micro_program, micro_trace,
                         FrontEndConfig().with_btb_entries(8192),
                         warmup=2_000)
        assert large.total_btb_misses < small.total_btb_misses

    def test_infinite_btb_floor(self, micro_program, micro_trace):
        infinite = simulate(micro_program, micro_trace,
                            FrontEndConfig().with_btb_entries(
                                1 << 20, infinite=True),
                            warmup=2_000)
        finite = simulate(micro_program, micro_trace, FrontEndConfig(),
                          warmup=2_000)
        assert infinite.total_btb_misses <= finite.total_btb_misses

    def test_tiny_l1i_more_misses(self, micro_program, micro_trace):
        small_cache = FrontEndConfig(l1i_size=4 * 1024)
        small = simulate(micro_program, micro_trace, small_cache,
                         warmup=2_000)
        large = simulate(micro_program, micro_trace, FrontEndConfig(),
                         warmup=2_000)
        assert small.l1i_misses >= large.l1i_misses

    def test_head_only_and_tail_only_both_help(self, micro_program,
                                               micro_trace, baseline_stats):
        head = simulate(micro_program, micro_trace,
                        FrontEndConfig(skia=SkiaConfig(decode_tails=False)),
                        warmup=2_000)
        tail = simulate(micro_program, micro_trace,
                        FrontEndConfig(skia=SkiaConfig(decode_heads=False)),
                        warmup=2_000)
        # The micro workload is tiny; head-only coverage is marginal
        # there (hits ~1), so assert activity rather than hit counts for
        # the head configuration.
        assert head.total_sbb_insertions > 0
        assert tail.total_sbb_hits > 0
        assert head.sbd_tail_decodes == 0
        assert tail.sbd_head_decodes == 0


class TestRunArguments:
    def test_zero_warmup(self, micro_program, micro_trace):
        stats = simulate(micro_program, micro_trace.prefix(1000),
                         FrontEndConfig())
        assert stats.blocks == 1000

    def test_requires_records(self, micro_program):
        simulator = FrontEndSimulator(micro_program, FrontEndConfig())
        with pytest.raises(TypeError):
            simulator.run_compiled()
        with pytest.raises(AttributeError):
            simulator.run_compiled(None)
