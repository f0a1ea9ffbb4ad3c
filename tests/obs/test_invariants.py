"""Invariant-check unit tests: each declared identity fires on a
corrupted snapshot and stays silent on a consistent one."""

from repro.frontend.stats import SimStats
from repro.isa.branch import BranchKind
from repro.obs import applicable_invariants, check_snapshot, snapshot_from_stats


def consistent_stats() -> SimStats:
    """A hand-built SimStats satisfying every counter identity."""
    stats = SimStats()
    stats.branches[BranchKind.DIRECT_UNCOND] = 60
    stats.branches[BranchKind.DIRECT_COND] = 40
    stats.btb_lookups = 100
    stats.btb_misses[BranchKind.DIRECT_UNCOND] = 20
    stats.btb_miss_l1i_hit = 15
    stats.l1i_accesses = 500
    stats.l1i_misses = 50
    stats.l2_misses = 20
    stats.l3_misses = 5
    stats.cond_predictions = 40
    stats.cond_mispredicts = 4
    stats.ras_predictions = 10
    stats.ras_mispredicts = 2
    stats.ras_underflows = 1
    stats.decode_resteers = 6
    stats.exec_resteers = 4
    stats.resteer_causes = {"undetected_branch": 6, "cond_mispredict": 4}
    stats.sbb_lookups = 20
    stats.sbb_hits_u = 5
    stats.sbb_hits_r = 3
    stats.sbb_misses = 12
    stats.sbb_insertions_u = 30
    stats.sbb_insertions_r = 10
    stats.sbb_bogus_insertions = 2
    stats.sbb_wrong_target = 1
    stats.sbb_retired_marks = 4
    stats.sbd_head_decodes = 50
    stats.sbd_head_discarded = 10
    return stats


class TestSnapshotFromStats:
    def test_flattens_scalars_and_dicts(self):
        snapshot = snapshot_from_stats(consistent_stats())
        assert snapshot["sim.btb_lookups"] == 100
        assert snapshot["sim.branches.DirectUnCond"] == 60
        assert snapshot["sim.branches_total"] == 100
        assert snapshot["sim.resteer_causes.cond_mispredict"] == 4
        assert snapshot["sim.sbb_hits_total"] == 8
        assert snapshot["sim.resteers_total"] == 10

    def test_config_gates(self):
        snapshot = snapshot_from_stats(consistent_stats(),
                                       skia_enabled=True)
        assert snapshot["config.skia_enabled"] == 1.0
        off = snapshot_from_stats(consistent_stats(), skia_enabled=False)
        assert off["config.skia_enabled"] == 0.0

    def test_new_fields_join_automatically(self):
        # The flattening is generic over dataclass fields, so any future
        # counter shows up without touching the obs package.
        names = {field_key for field_key in
                 snapshot_from_stats(SimStats()) if field_key.startswith("sim.")}
        assert "sim.ras_underflows" in names
        assert "sim.sbb_lookups" in names


class TestCheckSnapshot:
    def test_consistent_snapshot_passes(self):
        snapshot = snapshot_from_stats(consistent_stats(),
                                       skia_enabled=True)
        assert check_snapshot(snapshot) == []

    def test_skia_invariants_gated_off_for_baseline(self):
        snapshot = snapshot_from_stats(consistent_stats(),
                                       skia_enabled=False)
        names = applicable_invariants(snapshot)
        assert "sbb_probe_partition" not in names
        assert "btb_lookups_cover_branches" in names

    def test_btb_lookup_mismatch_fires(self):
        snapshot = snapshot_from_stats(consistent_stats())
        snapshot["sim.btb_lookups"] = 99
        assert any(v.invariant == "btb_lookups_cover_branches"
                   for v in check_snapshot(snapshot))

    def test_sbb_partition_fires(self):
        snapshot = snapshot_from_stats(consistent_stats(),
                                       skia_enabled=True)
        snapshot["sim.sbb_misses"] = 11  # hits + misses != lookups
        assert any(v.invariant == "sbb_hit_miss_partition"
                   for v in check_snapshot(snapshot))

    def test_resteer_cause_partition_fires(self):
        snapshot = snapshot_from_stats(consistent_stats())
        snapshot["sim.resteer_causes.cond_mispredict"] = 3
        assert any(v.invariant == "resteer_causes_partition"
                   for v in check_snapshot(snapshot))

    def test_ras_underflow_bound_fires(self):
        snapshot = snapshot_from_stats(consistent_stats())
        snapshot["sim.ras_underflows"] = 3  # > ras_mispredicts
        assert any(v.invariant == "ras_underflows_are_mispredicts"
                   for v in check_snapshot(snapshot))

    def test_structure_invariants_require_structure_keys(self):
        snapshot = snapshot_from_stats(consistent_stats())
        names = applicable_invariants(snapshot)
        assert "ras_structure_accounting" not in names
        assert "sbb_structure_accounting" not in names

    def test_ras_structure_accounting(self):
        snapshot = {"ras.pushes": 10, "ras.pops": 6, "ras.underflows": 2,
                    "ras.overflow_overwrites": 1, "ras.occupancy": 5,
                    "ras.depth": 8}
        assert check_snapshot(snapshot) == []
        snapshot["ras.occupancy"] = 4
        assert any(v.invariant == "ras_structure_accounting"
                   for v in check_snapshot(snapshot))

    def test_sbb_structure_accounting(self):
        half = {"insertions": 20, "evictions_bogus_first": 3,
                "evictions_lru": 2, "occupancy": 10, "hits": 4,
                "lookups": 9, "entries": 16}
        snapshot = {}
        for prefix in ("sbb.u", "sbb.r"):
            for name, value in half.items():
                snapshot[f"{prefix}.{name}"] = value
        assert check_snapshot(snapshot) == []
        snapshot["sbb.u.insertions"] = 14  # < evictions + occupancy
        assert any(v.invariant == "sbb_structure_accounting"
                   for v in check_snapshot(snapshot))

    def test_cross_layer_bound(self):
        snapshot = snapshot_from_stats(consistent_stats())
        snapshot["btb.lookups"] = 99  # whole-run < post-warm-up: impossible
        snapshot["btb.hits"] = 50
        snapshot["btb.occupancy"] = 10
        snapshot["btb.entries"] = 64
        assert any(v.invariant == "cross_layer_bounds"
                   for v in check_snapshot(snapshot))


class TestTraceDropAccounting:
    def _snapshot(self, emitted, retained, dropped):
        return {"trace.emitted": emitted, "trace.retained": retained,
                "trace.dropped_events": dropped}

    def test_consistent_accounting_passes(self):
        assert check_snapshot(self._snapshot(10, 8, 2)) == []
        assert check_snapshot(self._snapshot(5, 5, 0)) == []

    def test_mismatch_fires(self):
        violations = check_snapshot(self._snapshot(10, 8, 1))
        assert any(v.invariant == "trace_drop_accounting"
                   for v in violations)

    def test_dropped_exceeding_emitted_fires(self):
        assert check_snapshot(self._snapshot(3, 0, 4))

    def test_gated_off_without_trace_keys(self):
        names = [inv.name for inv in applicable_invariants({"btb.hits": 1})]
        assert "trace_drop_accounting" not in names

    def test_live_simulator_gauges_conserve(self, micro_program,
                                            micro_trace):
        # A deliberately tiny ring buffer forces drops; the registered
        # trace.* gauges must still account for every emitted event.
        from repro.frontend.config import FrontEndConfig, SkiaConfig
        from repro.frontend.engine import FrontEndSimulator
        from repro.obs import EventTrace

        simulator = FrontEndSimulator(
            micro_program, FrontEndConfig(skia=SkiaConfig()))
        simulator.attach_trace(EventTrace(capacity=64))
        simulator.run_compiled(micro_trace.prefix(4_000), warmup=500)
        snapshot = simulator.metrics_snapshot()
        assert snapshot["trace.dropped_events"] > 0
        assert (snapshot["trace.emitted"]
                == snapshot["trace.retained"]
                + snapshot["trace.dropped_events"])
        assert not [v for v in check_snapshot(snapshot)
                    if v.invariant == "trace_drop_accounting"]
