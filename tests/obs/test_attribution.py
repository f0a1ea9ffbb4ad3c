"""Per-branch / per-line attribution: rollups, conservation, diff.

The synthetic-event tests pin the aggregator's accounting rules; the
micro-simulation tests pin the property the tier-1 grid scales up:
per-branch sums equal the aggregate ``SimStats`` counters exactly, even
when the attached ring buffer drops events (sinks see everything).
"""

import json
import warnings

import pytest

from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.obs import (
    AttributionAggregator,
    DroppedEventsWarning,
    EventTrace,
    check_snapshot,
    diff_attributions,
)
from repro.obs.attribution import render_html, render_markdown
from repro.workloads.analysis import (
    shadow_geometry,
    shadow_position_map,
    shadow_positions,
)


def _btb(pc, hit, record=10, resident=False, kind="DirectUnCond"):
    return {"kind": "btb", "record": record, "pc": pc, "hit": hit,
            "branch_kind": kind, "resident": resident}


class TestObserve:
    def test_btb_rollup(self):
        agg = AttributionAggregator(warmup=0)
        agg.observe(_btb(0x100, hit=True))
        agg.observe(_btb(0x100, hit=False, resident=True))
        agg.observe(_btb(0x100, hit=False, resident=False))
        branch = agg.branches[0x100]
        assert branch.btb_lookups == 3
        assert branch.btb_misses == 2
        assert branch.btb_miss_l1i_hit == 1
        assert branch.kind == "DirectUnCond"
        assert agg.lines[0x100].btb_misses == 2

    def test_warmup_gating(self):
        agg = AttributionAggregator(warmup=5)
        agg.observe(_btb(0x100, hit=False, record=4))   # warm-up: uncounted
        agg.observe(_btb(0x100, hit=False, record=5))   # boundary: counted
        assert agg.events_seen == 2
        assert agg.events_counted == 1
        assert agg.branches[0x100].btb_misses == 1

    def test_sbb_split(self):
        agg = AttributionAggregator()
        agg.observe({"kind": "sbb", "record": 0, "pc": 0x10, "hit": True,
                     "which": "u"})
        agg.observe({"kind": "sbb", "record": 0, "pc": 0x10, "hit": True,
                     "which": "r"})
        agg.observe({"kind": "sbb", "record": 0, "pc": 0x10, "hit": False,
                     "which": None})
        branch = agg.branches[0x10]
        assert (branch.sbb_hits_u, branch.sbb_hits_r,
                branch.sbb_misses) == (1, 1, 1)
        assert branch.sbb_hits == 2
        assert agg.lines[0].sbb_hits == 2

    def test_resteer_cycles_by_cause(self):
        agg = AttributionAggregator()
        agg.observe({"kind": "resteer", "record": 0, "pc": 0x20,
                     "stage": "decode", "cause": "undetected_branch",
                     "latency": 10.0})
        agg.observe({"kind": "resteer", "record": 0, "pc": 0x20,
                     "stage": "exec", "cause": "cond_mispredict",
                     "latency": 25.0})
        branch = agg.branches[0x20]
        assert branch.decode_resteers == 1
        assert branch.exec_resteers == 1
        assert branch.resteer_cycles == {"undetected_branch": 10.0,
                                         "cond_mispredict": 25.0}
        assert branch.cycles == 35.0
        assert branch.top_cause == "cond_mispredict"

    def test_sbd_byte_masks(self):
        agg = AttributionAggregator(line_size=64)
        # Head decode entering at offset 16 covers bytes [0, 16).
        agg.observe({"kind": "sbd", "record": 0, "side": "head",
                     "pc": 0x1010, "branches": 2, "discarded": False})
        # Tail decode exiting at offset 48 covers bytes [48, 64).
        agg.observe({"kind": "sbd", "record": 0, "side": "tail",
                     "pc": 0x1030, "branches": 1})
        line = agg.lines[0x1000]
        assert line.head_bytes == 16
        assert line.tail_bytes == 16
        assert line.covered_bytes == 32
        assert line.head_decodes == 1 and line.tail_decodes == 1
        assert line.shadow_branches_found == 3

    def test_head_discard_counted(self):
        agg = AttributionAggregator()
        agg.observe({"kind": "sbd", "record": 0, "side": "head",
                     "pc": 0x10, "branches": 0, "discarded": True})
        assert agg.lines[0].head_discarded == 1

    def test_unknown_kind_ignored(self):
        agg = AttributionAggregator()
        agg.observe({"kind": "trace_header", "capacity": 4})
        assert agg.events_seen == 1
        assert agg.events_counted == 0

    def test_rejects_bad_line_size(self):
        with pytest.raises(ValueError):
            AttributionAggregator(line_size=0)


class TestTotalsAndSnapshot:
    def test_totals_sum_branches_and_lines(self):
        agg = AttributionAggregator()
        agg.observe(_btb(0x100, hit=False, resident=True))
        agg.observe(_btb(0x180, hit=False))
        agg.observe({"kind": "sbb", "record": 10, "pc": 0x100,
                     "hit": True, "which": "u"})
        agg.observe({"kind": "sbb", "record": 10, "pc": 0x180,
                     "hit": False, "which": None})
        totals = agg.totals()
        assert totals["btb_misses"] == 2
        assert totals["btb_miss_l1i_hit"] == 1
        assert totals["sbb_lookups"] == 2
        assert totals["branches"] == 2
        assert totals["lines"] == 2
        assert agg.shadow_resident_fraction == 0.5

    def test_snapshot_uses_attrib_prefix(self):
        agg = AttributionAggregator()
        agg.observe(_btb(0x100, hit=False))
        snapshot = agg.snapshot()
        assert snapshot["attrib.btb_misses"] == 1
        assert all(key.startswith("attrib.") for key in snapshot)

    def test_top_branches_ranked_by_cycles(self):
        agg = AttributionAggregator()
        for pc, latency in ((0x10, 5.0), (0x20, 50.0), (0x30, 20.0)):
            agg.observe({"kind": "resteer", "record": 0, "pc": pc,
                         "stage": "exec", "cause": "cond_mispredict",
                         "latency": latency})
        assert [b.pc for b in agg.top_branches(2)] == [0x20, 0x30]


class TestPersistence:
    def _populated(self):
        agg = AttributionAggregator(workload="micro", warmup=3)
        agg.observe(_btb(0x100, hit=False, resident=True))
        agg.observe({"kind": "sbb", "record": 10, "pc": 0x100,
                     "hit": True, "which": "u"})
        agg.observe({"kind": "resteer", "record": 11, "pc": 0x140,
                     "stage": "decode", "cause": "undetected_branch",
                     "latency": 9.0})
        agg.observe({"kind": "sbd", "record": 11, "side": "head",
                     "pc": 0x148, "branches": 1, "discarded": False})
        return agg

    def test_roundtrip_is_lossless(self, tmp_path):
        agg = self._populated()
        path = agg.save(tmp_path / "attrib.json")
        loaded = AttributionAggregator.load(path)
        assert loaded.to_jsonable() == agg.to_jsonable()
        assert loaded.totals() == agg.totals()
        # Deterministic bytes: re-saving reproduces the file exactly.
        assert loaded.save(tmp_path / "again.json").read_bytes() == (
            path.read_bytes())

    def test_schema_mismatch_rejected(self):
        payload = self._populated().to_jsonable()
        payload["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            AttributionAggregator.from_jsonable(payload)

    def test_from_trace_jsonl_rebuilds_rollups(self, tmp_path):
        trace = EventTrace(capacity=1024)
        trace.record_index = 0
        trace.emit("btb", pc=0x100, hit=False, branch_kind="Call",
                   resident=True)
        trace.emit("sbb", pc=0x100, hit=True, which="u")
        agg_live = AttributionAggregator()
        for event in trace:
            agg_live.observe(event)
        path = trace.to_jsonl(tmp_path / "trace.jsonl")
        rebuilt = AttributionAggregator.from_trace_jsonl(path)
        assert rebuilt.totals() == agg_live.totals()

    def test_truncated_trace_warns(self, tmp_path):
        # Satellite: a capacity-1 ring drops all but the newest event;
        # rebuilding attribution from such a dump must warn, not
        # silently under-attribute.
        trace = EventTrace(capacity=1)
        for index in range(6):
            trace.emit("btb", pc=index * 4, hit=False,
                       branch_kind="Call", resident=False)
        path = trace.to_jsonl(tmp_path / "truncated.jsonl")
        with pytest.warns(DroppedEventsWarning, match="5 dropped"):
            rebuilt = AttributionAggregator.from_trace_jsonl(path)
        assert rebuilt.source_dropped == 5
        assert rebuilt.totals()["btb_misses"] == 1  # only the survivor

    def test_complete_trace_does_not_warn(self, tmp_path):
        trace = EventTrace(capacity=16)
        trace.emit("btb", pc=0, hit=True, branch_kind="Call",
                   resident=False)
        path = trace.to_jsonl(tmp_path / "full.jsonl")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            AttributionAggregator.from_trace_jsonl(path)


class TestShadowPositions:
    def test_positions_aggregate_to_geometry(self, micro_program):
        positions = shadow_positions(micro_program)
        geometry = shadow_geometry(micro_program)
        assert len(positions) == geometry.total_branches
        assert sum(p.head for p in positions) == (
            geometry.head_shadow_candidates)
        assert sum(p.tail for p in positions) == (
            geometry.tail_shadow_candidates)
        assert sum(p.eligible for p in positions) == (
            geometry.eligible_branches)

    def test_map_keys_are_branch_pcs(self, micro_program):
        mapping = shadow_position_map(micro_program)
        assert mapping
        assert all(mapping[pc].pc == pc for pc in mapping)

    def test_labels(self, micro_program):
        labels = {p.label for p in shadow_positions(micro_program)}
        assert labels <= {"head", "tail", "head+tail", "none"}

    def test_aggregator_stamps_positions(self, micro_program):
        agg = AttributionAggregator(
            shadow_positions=shadow_position_map(micro_program))
        some_pc = next(iter(shadow_position_map(micro_program)))
        agg.observe(_btb(some_pc, hit=False))
        assert agg.branches[some_pc].shadow in (
            "head", "tail", "head+tail", "none")
        # Unknown PCs are "none", not "?", once a census is supplied.
        agg.observe(_btb(0x1, hit=False))
        assert agg.branches[0x1].shadow == "none"


@pytest.fixture(scope="module")
def attributed_sim(micro_program, micro_trace):
    """Skia micro run with live attribution through a *tiny* ring.

    The capacity-4 trace drops nearly everything from the ring, proving
    attribution reads the sink stream, not the buffer.
    """
    config = FrontEndConfig(skia=SkiaConfig()).with_btb_entries(256)
    simulator = FrontEndSimulator(micro_program, config)
    simulator.attach_trace(EventTrace(capacity=4))
    simulator.attach_attribution()
    simulator.run_compiled(micro_trace, warmup=2_000)
    return simulator


class TestConservationOnRealRuns:
    def test_exact_integer_identities(self, attributed_sim):
        stats = attributed_sim.stats
        totals = attributed_sim.attribution.totals()
        assert attributed_sim.trace.dropped > 0  # the ring truly dropped
        assert totals["btb_lookups"] == stats.btb_lookups
        assert totals["btb_misses"] == stats.total_btb_misses
        assert totals["btb_miss_l1i_hit"] == stats.btb_miss_l1i_hit
        assert totals["sbb_lookups"] == stats.sbb_lookups
        assert totals["sbb_hits_u"] == stats.sbb_hits_u
        assert totals["sbb_hits_r"] == stats.sbb_hits_r
        assert totals["sbb_misses"] == stats.sbb_misses
        assert totals["decode_resteers"] == stats.decode_resteers
        assert totals["exec_resteers"] == stats.exec_resteers
        assert totals["sbd_head_decodes"] == stats.sbd_head_decodes
        assert totals["sbd_tail_decodes"] == stats.sbd_tail_decodes
        assert totals["sbd_head_discarded"] == stats.sbd_head_discarded
        for cause, count in stats.resteer_causes.items():
            assert totals[f"resteer_causes.{cause}"] == count

    def test_shadow_resident_fraction_identity(self, attributed_sim):
        # The acceptance criterion: the per-branch reconstruction of the
        # Figure 1/15 fraction equals the aggregate exactly.
        assert attributed_sim.attribution.shadow_resident_fraction == (
            attributed_sim.stats.btb_miss_l1i_hit_fraction)

    def test_merged_snapshot_passes_attribution_invariants(
            self, attributed_sim):
        merged = attributed_sim.metrics_snapshot()
        merged.update(attributed_sim.attribution.snapshot())
        assert check_snapshot(merged) == []
        from repro.obs import applicable_invariants
        names = applicable_invariants(merged)
        assert "attribution_btb_conservation" in names
        assert "attribution_sbb_conservation" in names
        assert "attribution_resteer_conservation" in names
        assert "attribution_sbd_conservation" in names

    def test_corrupted_rollup_is_caught(self, attributed_sim):
        merged = attributed_sim.metrics_snapshot()
        merged.update(attributed_sim.attribution.snapshot())
        merged["attrib.btb_misses"] += 1
        names = {v.invariant for v in check_snapshot(merged)}
        assert "attribution_btb_conservation" in names

    def test_branch_shadow_labels_stamped(self, attributed_sim):
        labels = {b.shadow
                  for b in attributed_sim.attribution.branches.values()}
        assert "?" not in labels  # for_simulation supplied the census


class TestReports:
    def test_markdown_report(self, attributed_sim):
        rendered = render_markdown(attributed_sim.attribution, top=5)
        assert "# Attribution report" in rendered
        assert "| pc | kind | shadow |" in rendered
        assert "Resteer causes" in rendered

    def test_html_report(self, attributed_sim):
        rendered = render_html(attributed_sim.attribution, top=5)
        assert rendered.startswith("<!DOCTYPE html>")
        assert "<table>" in rendered

    def test_unknown_format_rejected(self, attributed_sim):
        from repro.obs.attribution import render_report
        with pytest.raises(ValueError):
            render_report(attributed_sim.attribution, fmt="pdf")


def _agg_with_cycles(spec):
    """{pc: (cycles, misses, rescues)} -> aggregator."""
    agg = AttributionAggregator()
    for pc, (cycles, misses, rescues) in spec.items():
        if cycles:
            agg.observe({"kind": "resteer", "record": 0, "pc": pc,
                         "stage": "exec", "cause": "cond_mispredict",
                         "latency": cycles})
        for _ in range(misses):
            agg.observe(_btb(pc, hit=False))
        for _ in range(rescues):
            agg.observe({"kind": "sbb", "record": 0, "pc": pc,
                         "hit": True, "which": "u"})
    return agg


class TestDiff:
    def test_regression_needs_both_gates(self):
        before = _agg_with_cycles({0x10: (1000.0, 0, 0)})
        # +50 cycles is past neither gate; +500 is past both.
        after_small = _agg_with_cycles({0x10: (1050.0, 0, 0)})
        after_big = _agg_with_cycles({0x10: (1500.0, 0, 0)})
        assert diff_attributions(before, after_small,
                                 min_cycles=100, min_pct=10).regressions == []
        diff = diff_attributions(before, after_big,
                                 min_cycles=100, min_pct=10)
        assert [d.pc for d in diff.regressions] == [0x10]

    def test_relative_gate_protects_hot_branches(self):
        # 200 extra cycles on a 10k-cycle branch is 2% -- not a
        # regression at a 10% relative gate, despite passing the
        # absolute one.
        before = _agg_with_cycles({0x10: (10_000.0, 0, 0)})
        after = _agg_with_cycles({0x10: (10_200.0, 0, 0)})
        assert diff_attributions(before, after,
                                 min_cycles=100, min_pct=10).regressions == []

    def test_new_branch_flagged_on_absolute_gate(self):
        before = _agg_with_cycles({})
        after = _agg_with_cycles({0x20: (500.0, 0, 0)})
        diff = diff_attributions(before, after, min_cycles=100, min_pct=10)
        assert [d.pc for d in diff.regressions] == [0x20]

    def test_improvement_never_flagged(self):
        before = _agg_with_cycles({0x10: (1000.0, 0, 0)})
        after = _agg_with_cycles({0x10: (100.0, 0, 0)})
        diff = diff_attributions(before, after)
        assert diff.regressions == []
        assert diff.deltas[0].delta_cycles == -900.0

    def test_unmoved_branches_excluded(self):
        spec = {0x10: (100.0, 2, 1)}
        diff = diff_attributions(_agg_with_cycles(spec),
                                 _agg_with_cycles(spec))
        assert diff.deltas == []

    def test_miss_and_rescue_movement_kept(self):
        before = _agg_with_cycles({0x10: (0.0, 5, 1)})
        after = _agg_with_cycles({0x10: (0.0, 8, 4)})
        diff = diff_attributions(before, after)
        assert len(diff.deltas) == 1
        delta = diff.deltas[0]
        assert delta.after_misses - delta.before_misses == 3
        assert delta.after_rescues - delta.before_rescues == 3

    def test_render_mentions_thresholds(self):
        before = _agg_with_cycles({0x10: (0.0, 0, 0)})
        after = _agg_with_cycles({0x10: (500.0, 0, 0)})
        rendered = diff_attributions(before, after).render()
        assert "REGRESSED" in rendered
        assert "1 regressed past thresholds" in rendered
