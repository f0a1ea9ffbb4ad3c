"""Metrics registry unit tests."""

import math

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    load_snapshot,
    render_snapshot,
    save_snapshot,
)


class TestHistogram:
    def test_empty(self):
        histogram = Histogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0

    def test_power_of_two_buckets(self):
        histogram = Histogram()
        for value in (0.5, 1, 3, 3, 17):
            histogram.record(value)
        out = {}
        histogram.snapshot_into(out, "h")
        assert out["h.count"] == 5
        assert out["h.bucket_lt_1"] == 1     # 0.5
        assert out["h.bucket_lt_4"] == 2     # 3, 3
        assert out["h.bucket_lt_32"] == 1    # 17
        assert out["h.min"] == 0.5
        assert out["h.max"] == 17
        assert out["h.mean"] == pytest.approx((0.5 + 1 + 3 + 3 + 17) / 5)

    def test_bucket_counts_sum_to_count(self):
        histogram = Histogram()
        for value in range(100):
            histogram.record(value)
        assert sum(histogram.buckets) == histogram.count == 100


class TestRegistry:
    def test_gauges_sample_lazily(self):
        registry = MetricsRegistry()
        scope = registry.scope("ras")
        counter = {"pops": 0}
        scope.gauge("pops", lambda: counter["pops"])
        counter["pops"] = 7
        assert registry.snapshot()["ras.pops"] == 7

    def test_nested_scopes(self):
        registry = MetricsRegistry()
        sbb = registry.scope("sbb")
        sbb.scope("u").gauge("hits", lambda: 3)
        sbb.scope("r").gauge("hits", lambda: 4)
        snapshot = registry.snapshot()
        assert snapshot["sbb.u.hits"] == 3
        assert snapshot["sbb.r.hits"] == 4

    def test_histogram_is_shared_per_name(self):
        registry = MetricsRegistry()
        scope = registry.scope("engine")
        scope.histogram("latency").record(2)
        scope.histogram("latency").record(6)
        assert registry.snapshot()["engine.latency.count"] == 2


class TestSnapshotAlgebra:
    def test_diff_reports_changed_keys_only(self):
        diff = diff_snapshots({"a": 1, "b": 2}, {"a": 1, "b": 5})
        assert diff == {"b": (2, 5)}

    def test_diff_surfaces_schema_drift(self):
        diff = diff_snapshots({"old": 1}, {"new": 2})
        assert diff == {"old": (1, None), "new": (None, 2)}

    def test_render_groups_by_component(self):
        text = render_snapshot({"btb.hits": 5, "btb.lookups": 9,
                                "ras.pops": 1.5})
        assert "[btb]" in text and "[ras]" in text
        assert "1.5000" in text  # non-integral floats keep precision

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "snap.json"
        snapshot = {"btb.hits": 5, "engine.mean": 1.25}
        save_snapshot(path, snapshot, meta={"workload": "voter"})
        loaded, meta = load_snapshot(path)
        assert loaded == snapshot
        assert meta == {"workload": "voter"}

    def test_load_accepts_bare_mapping(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text('{"x": 1}')
        loaded, meta = load_snapshot(path)
        assert loaded == {"x": 1}
        assert meta == {}
