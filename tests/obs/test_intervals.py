"""Interval telemetry: collector windows, series algebra, conservation.

The engine-facing contract (boundaries cut on the record index, final
partial window from ``finish``, injected progress counters) is pinned
here on the micro workload; three-way cross-engine bit-identity over
the Figure-14 grid lives in tests/frontend/test_interval_equality.py.
"""

import dataclasses

import pytest

from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.obs.intervals import (
    IntervalCollector,
    IntervalSeries,
    diff_series,
    sparkline,
)
from repro.obs.invariants import check_snapshot

RECORDS = 1_000
WARMUP = 150
WINDOW = 100


@pytest.fixture(scope="module")
def trace(micro_trace):
    return micro_trace.prefix(RECORDS)


@pytest.fixture(scope="module")
def skia_run(micro_program, trace):
    config = dataclasses.replace(FrontEndConfig(skia=SkiaConfig()),
                                 interval_size=WINDOW)
    simulator = FrontEndSimulator(micro_program, config)
    stats = simulator.run_compiled(trace, warmup=WARMUP)
    return simulator, stats


class TestCollectorGeometry:
    def test_window_count_and_boundaries(self, skia_run):
        simulator, _ = skia_run
        series = simulator.intervals.series()
        assert series.windows == RECORDS // WINDOW
        assert series.ends == list(range(WINDOW, RECORDS + 1, WINDOW))
        assert series.starts == list(range(0, RECORDS, WINDOW))
        assert series.warmup == WARMUP

    def test_exact_multiple_has_no_duplicate_final_window(
            self, micro_program, trace):
        config = dataclasses.replace(FrontEndConfig(), interval_size=100)
        simulator = FrontEndSimulator(micro_program, config)
        simulator.run_compiled(trace.prefix(500), warmup=0)
        assert simulator.intervals.ends == [100, 200, 300, 400, 500]

    def test_trace_shorter_than_one_window(self, micro_program,
                                           trace):
        config = dataclasses.replace(FrontEndConfig(), interval_size=5_000)
        simulator = FrontEndSimulator(micro_program, config)
        simulator.run_compiled(trace, warmup=WARMUP)
        series = simulator.intervals.series()
        assert series.ends == [RECORDS]
        assert series.windows == 1

    def test_interval_size_zero_attaches_nothing(self,
                                                 micro_program,
                                                 trace):
        simulator = FrontEndSimulator(micro_program,
                                      FrontEndConfig())
        simulator.run_compiled(trace.prefix(200), warmup=0)
        assert simulator.intervals is None
        assert not any(key.startswith("intervals.")
                       for key in simulator.metrics_snapshot())

    def test_empty_trace_yields_no_windows(self, micro_program, trace):
        config = dataclasses.replace(FrontEndConfig(), interval_size=10)
        simulator = FrontEndSimulator(micro_program, config)
        simulator.run_compiled(trace.prefix(0), warmup=0)
        assert simulator.intervals.series().windows == 0

    def test_negative_interval_size_rejected(self):
        with pytest.raises(ValueError):
            IntervalCollector(-1)


class TestConservation:
    """Column sums telescope exactly to the aggregate counters."""

    def test_totals_match_aggregate_stats(self, skia_run):
        simulator, stats = skia_run
        totals = simulator.intervals.series().totals()
        aggregate = stats.snapshot_row()
        for name, expected in aggregate.items():
            assert totals.get(name, 0) == expected, name

    def test_invariant_applies_and_passes(self, skia_run):
        simulator, _ = skia_run
        snapshot = simulator.metrics_snapshot()
        assert snapshot["intervals.windows"] == RECORDS // WINDOW
        assert not check_snapshot(snapshot)

    def test_warmup_crossing_a_window_boundary(self, micro_program,
                                               trace):
        # WARMUP=150 sits mid-window at WINDOW=100: window 0 is all
        # warm-up (all-zero deltas), window 1 is split.  The conserved
        # totals must still equal the aggregate counted-region stats.
        config = dataclasses.replace(FrontEndConfig(skia=SkiaConfig()),
                                     interval_size=100)
        simulator = FrontEndSimulator(micro_program, config)
        stats = simulator.run_compiled(trace, warmup=150)
        series = simulator.intervals.series()
        assert all(value == 0 for value in
                   (row[0] for row in series.columns.values()))
        totals = series.totals()
        for name, expected in stats.snapshot_row().items():
            assert totals.get(name, 0) == expected, name

    def test_all_warmup_run_passes_invariant(self, micro_program,
                                             trace):
        # Counting never starts: the epilogue reports a degenerate
        # cycle figure, the series a true zero -- the invariant's
        # empty-counted-region exception must absorb it.
        config = dataclasses.replace(FrontEndConfig(), interval_size=100)
        simulator = FrontEndSimulator(micro_program, config)
        simulator.run_compiled(trace.prefix(120), warmup=500)
        assert not check_snapshot(simulator.metrics_snapshot())


class TestSeries:
    def test_round_trip_and_fingerprint(self, skia_run, tmp_path):
        simulator, _ = skia_run
        series = simulator.intervals.series()
        loaded = IntervalSeries.from_jsonable(series.to_jsonable())
        assert loaded == series
        assert loaded.fingerprint() == series.fingerprint()
        path = tmp_path / "series.json"
        series.save(path)
        assert IntervalSeries.load(path) == series

    def test_schema_version_enforced(self, skia_run):
        simulator, _ = skia_run
        payload = simulator.intervals.series().to_jsonable()
        payload["schema_version"] = 99
        with pytest.raises(ValueError):
            IntervalSeries.from_jsonable(payload)

    def test_metric_series_shapes(self, skia_run):
        simulator, _ = skia_run
        series = simulator.intervals.series()
        for metric in series.metric_names():
            assert len(series.metric_series(metric)) == series.windows
        with pytest.raises(KeyError):
            series.metric_series("not-a-metric")

    def test_render_markdown_contains_table_and_sparklines(self, skia_run):
        simulator, _ = skia_run
        series = simulator.intervals.series()
        rendered = series.render_markdown(["ipc", "btb_miss_mpki"])
        assert f"fingerprint={series.fingerprint()}" in rendered
        assert "| window | start | end | ipc | btb_miss_mpki |" in rendered
        assert rendered.count("\n| ") == series.windows + 1  # header + rows

    def test_diff_identical_is_empty(self, skia_run):
        simulator, _ = skia_run
        series = simulator.intervals.series()
        assert diff_series(series, series) == []

    def test_diff_flags_value_and_geometry_changes(self, skia_run):
        simulator, _ = skia_run
        series = simulator.intervals.series()
        mutated = IntervalSeries.from_jsonable(series.to_jsonable())
        mutated.columns["branches.DirectCond"][3] += 1
        mutated.ends.append(mutated.ends[-1] + WINDOW)
        for column in mutated.columns.values():
            column.append(0)
        differences = diff_series(series, mutated)
        assert (-1, "~windows", series.windows,
                series.windows + 1) in differences
        assert any(entry[:2] == (3, "branches.DirectCond")
                   for entry in differences)


class TestSparkline:
    def test_scales_to_maximum(self):
        assert sparkline([0, 1, 2, 4]) == "▁▃▅█"

    def test_all_zero_and_empty(self):
        assert sparkline([0, 0]) == "▁▁"
        assert sparkline([]) == ""
