"""Divergence bisection: clean pairs stay clean, seeded ones localize.

The seeded tests validate the bisector against a brute-force oracle:
an ``interval_size=1`` collector pass over the full trace names the
true first divergent record, and the bisector must agree -- window and
record both.
"""

import dataclasses
import json

import pytest

from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.obs.divergence import (
    bisect_divergence,
    state_digest,
    window_digests,
)
from repro.obs.intervals import IntervalCollector

RECORDS = 1_000
WARMUP = 150
WINDOW = 250

SKIA = FrontEndConfig(skia=SkiaConfig())


@pytest.fixture(scope="module")
def trace(micro_trace):
    return micro_trace.prefix(RECORDS)


def _first_divergent_record(program, trace, config_a, config_b,
                            warmup=WARMUP):
    """Brute-force oracle: per-record rows over the whole trace."""
    sides = []
    for config in (config_a, config_b):
        config = dataclasses.replace(config, interval_size=0)
        simulator = FrontEndSimulator(program, config, seed=0)
        collector = IntervalCollector(1)
        simulator.attach_intervals(collector)
        simulator.run_compiled(trace, warmup=warmup)
        sides.append(collector.rows)
    for index, (row_a, row_b) in enumerate(zip(*sides)):
        if row_a != row_b:
            return index
    return None


class TestIdenticalSides:
    @pytest.mark.parametrize("engine_b", ["compiled", "batched"])
    def test_engine_pairs_are_clean(self, micro_program, trace,
                                    engine_b):
        report = bisect_divergence(
            micro_program, trace, SKIA, engine_a="compiled",
            engine_b=engine_b, warmup=WARMUP, window=WINDOW)
        assert report.identical
        assert report.window is None
        assert report.record_index is None
        assert report.windows_compared == RECORDS // WINDOW
        assert "identical" in report.render()

    def test_same_engine_same_config(self, micro_program, trace):
        report = bisect_divergence(
            micro_program, trace, SKIA, engine_a="batched",
            engine_b="batched", warmup=WARMUP, window=WINDOW)
        assert report.identical


class TestSeededDivergence:
    @pytest.mark.parametrize("perturb", [
        lambda c: c.with_btb_entries(64),
        lambda c: dataclasses.replace(c, ras_depth=2),
        lambda c: dataclasses.replace(c, exec_resolve_delay=10.0),
    ], ids=["btb64", "ras2", "resolve10"])
    def test_bisect_matches_brute_force_oracle(self, micro_program,
                                               trace, perturb):
        config_b = perturb(SKIA)
        expected = _first_divergent_record(micro_program, trace, SKIA,
                                           config_b)
        assert expected is not None, "perturbation produced no divergence"
        report = bisect_divergence(
            micro_program, trace, SKIA, config_b, engine_a="compiled",
            engine_b="compiled", warmup=WARMUP, window=WINDOW,
            oracle_events=False)
        assert not report.identical
        assert report.window == expected // WINDOW
        assert report.window_start <= expected < report.window_end
        assert report.record_index == expected
        assert report.record_counters

    def test_oracle_events_cover_the_divergent_record(self, micro_program,
                                                      trace):
        report = bisect_divergence(
            micro_program, trace, SKIA, SKIA.with_btb_entries(64),
            engine_a="compiled", engine_b="compiled", warmup=WARMUP,
            window=WINDOW)
        assert report.events_a and report.events_b
        for event in report.events_a + report.events_b:
            assert event["record"] == report.record_index
        rendered = report.render()
        assert "first divergent window" in rendered
        assert f"first divergent record: {report.record_index}" in rendered

    def test_report_is_json_serializable(self, micro_program, trace):
        report = bisect_divergence(
            micro_program, trace, SKIA, SKIA.with_btb_entries(64),
            engine_a="compiled", engine_b="compiled", warmup=WARMUP,
            window=WINDOW, oracle_events=False)
        payload = json.loads(json.dumps(report.to_jsonable()))
        assert payload["identical"] is False
        assert payload["window"] == report.window
        assert payload["record_index"] == report.record_index

    def test_state_diff_reports_counter_movement(self, micro_program,
                                                 trace):
        report = bisect_divergence(
            micro_program, trace, SKIA, SKIA.with_btb_entries(64),
            engine_a="compiled", engine_b="compiled", warmup=WARMUP,
            window=WINDOW, oracle_events=False)
        assert report.state_diff  # snapshots differ after the prefix


class TestStateDigest:
    def test_deterministic_and_state_sensitive(self, micro_program,
                                               trace):
        a = FrontEndSimulator(micro_program, SKIA, seed=0)
        b = FrontEndSimulator(micro_program, SKIA, seed=0)
        assert state_digest(a) == state_digest(b)
        a.run_compiled(trace.prefix(100), warmup=0)
        assert state_digest(a) != state_digest(b)
        b.run_compiled(trace.prefix(100), warmup=0)
        assert state_digest(a) == state_digest(b)

    def test_window_digests_expose_comparison_units(self, micro_program,
                                                    trace):
        config = dataclasses.replace(SKIA, interval_size=0)
        simulator = FrontEndSimulator(micro_program, config, seed=0)
        collector = IntervalCollector(
            WINDOW, state_probe=lambda: state_digest(simulator))
        simulator.attach_intervals(collector)
        simulator.run_compiled(trace, warmup=WARMUP)
        digests = window_digests(collector)
        assert len(digests) == RECORDS // WINDOW
        assert all(d.state_hash for d in digests)
        assert len({d.row_hash for d in digests}) > 1


class TestValidation:
    def test_window_must_be_positive(self, micro_program, trace):
        with pytest.raises(ValueError):
            bisect_divergence(micro_program, trace, SKIA, window=0)

    def test_unknown_engine_rejected(self, micro_program, trace):
        with pytest.raises(ValueError):
            bisect_divergence(micro_program, trace, SKIA,
                              engine_a="quantum", engine_b="compiled",
                              warmup=0, window=WINDOW)
