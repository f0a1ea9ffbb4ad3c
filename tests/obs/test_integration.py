"""End-to-end observability: metrics + trace on real micro simulations.

These are the tests the ISSUE's tier-1 grid check scales up from — a
full simulation must produce a snapshot that passes every applicable
invariant, and the event trace must agree with the counters it shadows.
"""

import pytest

from repro.frontend.bpu import RESTEER_CAUSES
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.obs import EventTrace, check_snapshot


def run_simulator(micro_program, micro_trace, config,
                  trace_capacity=None, warmup=2_000):
    simulator = FrontEndSimulator(micro_program, config)
    if trace_capacity is not None:
        simulator.attach_trace(EventTrace(capacity=trace_capacity))
    simulator.run_compiled(micro_trace, warmup=warmup)
    return simulator


@pytest.fixture(scope="module")
def baseline_sim(micro_program, micro_trace):
    return run_simulator(micro_program, micro_trace, FrontEndConfig(),
                         trace_capacity=1_000_000)


@pytest.fixture(scope="module")
def skia_sim(micro_program, micro_trace):
    config = FrontEndConfig(skia=SkiaConfig()).with_btb_entries(256)
    return run_simulator(micro_program, micro_trace, config,
                         trace_capacity=1_000_000)


class TestInvariantsOnRealRuns:
    def test_baseline_snapshot_clean(self, baseline_sim):
        assert check_snapshot(baseline_sim.metrics_snapshot()) == []

    def test_skia_snapshot_clean(self, skia_sim):
        assert check_snapshot(skia_sim.metrics_snapshot()) == []

    def test_resteer_causes_partition_exactly(self, skia_sim):
        stats = skia_sim.stats
        assert sum(stats.resteer_causes.values()) == (
            stats.decode_resteers + stats.exec_resteers)
        assert set(stats.resteer_causes) <= set(RESTEER_CAUSES)

    def test_sbb_probe_partition_exactly(self, skia_sim):
        stats = skia_sim.stats
        assert stats.sbb_lookups == stats.total_btb_misses
        assert (stats.sbb_hits_u + stats.sbb_hits_r + stats.sbb_misses
                == stats.sbb_lookups)


class TestTraceAgreesWithCounters:
    """The trace is sampled from the same events the counters count, so
    with an over-sized ring nothing is dropped and tallies must match
    the whole-run structure counters (trace covers warm-up too)."""

    def test_nothing_dropped(self, skia_sim):
        assert skia_sim.trace.dropped == 0

    def test_btb_events_match_structure_counters(self, skia_sim):
        events = skia_sim.trace.events("btb")
        btb = skia_sim.bpu.btb
        assert len(events) == btb.lookups
        assert sum(event["hit"] for event in events) == btb.hits

    def test_sbb_events_match_structure_counters(self, skia_sim):
        events = skia_sim.trace.events("sbb")
        sbb = skia_sim.skia.sbb
        assert len(events) == sbb.usbb.lookups
        hits = [event for event in events if event["hit"]]
        which = {"u": 0, "r": 0}
        for event in hits:
            which[event["which"]] += 1
        assert which["u"] == sbb.usbb.hits
        assert which["r"] == sbb.rsbb.hits

    def test_resteer_events_cover_post_warmup_counters(self, skia_sim):
        # The trace covers warm-up records too, so per-cause tallies
        # bound the post-warm-up stats from above.
        events = skia_sim.trace.events("resteer")
        stats = skia_sim.stats
        assert len(events) >= stats.decode_resteers + stats.exec_resteers
        by_cause: dict[str, int] = {}
        for event in events:
            by_cause[event["cause"]] = by_cause.get(event["cause"], 0) + 1
        for cause, count in stats.resteer_causes.items():
            assert by_cause.get(cause, 0) >= count
        assert set(by_cause) <= set(RESTEER_CAUSES)
        assert all(event["latency"] > 0 for event in events)

    def test_sbd_events_cover_decode_counters(self, skia_sim):
        # Trace covers warm-up decodes too, so it bounds the stats.
        sides = {"head": 0, "tail": 0}
        for event in skia_sim.trace.events("sbd"):
            sides[event["side"]] += 1
        stats = skia_sim.stats
        assert sides["head"] >= stats.sbd_head_decodes > 0
        assert sides["tail"] >= stats.sbd_tail_decodes > 0

    def test_baseline_emits_no_skia_events(self, baseline_sim):
        assert baseline_sim.trace.events("sbb") == []
        assert baseline_sim.trace.events("sbd") == []
        assert baseline_sim.trace.events("btb") != []


class TestStructureCounterRegressions:
    """Satellite regressions: RAS underflow + SBB counters must be live
    on real runs, not just unit-constructed structures."""

    def test_ras_underflow_counter_flows_to_stats(self, skia_sim):
        # Whole-run structure counter covers warm-up, stats do not.
        assert skia_sim.stats.ras_underflows <= skia_sim.bpu.ras.underflows
        assert skia_sim.stats.ras_underflows <= skia_sim.stats.ras_mispredicts

    def test_ras_conservation_identity(self, skia_sim):
        ras = skia_sim.bpu.ras
        assert len(ras) == (ras.pushes - ras.overflow_overwrites
                            - (ras.pops - ras.underflows))

    def test_sbb_insertion_accounting(self, skia_sim):
        for half in (skia_sim.skia.sbb.usbb, skia_sim.skia.sbb.rsbb):
            evictions = half.evictions_bogus_first + half.evictions_lru
            assert half.insertions >= evictions + half.occupancy()
            assert half.hits <= half.lookups


class TestDeterminism:
    def test_snapshot_identical_across_runs(self, micro_program,
                                            micro_trace):
        config = FrontEndConfig(skia=SkiaConfig())
        first = run_simulator(micro_program, micro_trace, config)
        second = run_simulator(micro_program, micro_trace, config)
        assert first.metrics_snapshot() == second.metrics_snapshot()

    def test_tracing_does_not_perturb_stats(self, micro_program,
                                            micro_trace):
        # The trace's own drop-accounting counters (trace.emitted /
        # trace.retained / trace.dropped_events) exist only when a
        # trace is attached; everything else must be untouched.
        config = FrontEndConfig(skia=SkiaConfig())
        traced = run_simulator(micro_program, micro_trace, config,
                               trace_capacity=64)
        untraced = run_simulator(micro_program, micro_trace, config)
        traced_stats = {name: value
                        for name, value in traced.metrics_snapshot().items()
                        if not name.startswith("trace.")}
        assert traced_stats == untraced.metrics_snapshot()
