"""Span tracing: recording, the span file, rollups, conservation, merge.

The profiler's spans are the only host-timing record.  These tests
drive the real profiler into a span file and check that what it
flushes is exactly what it recorded (one row per section pop, stamped
with cell and pid), that per-section totals are a rollup of the rows,
and that the cell-conservation check and the Perfetto merge read them.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.profiler import PROFILER, SectionProfiler, span_row
from repro.obs.spans import (
    HARNESS_PID,
    check_cell_conservation,
    merge_run_trace,
    read_spans,
    spans_to_chrome,
)
from tests.conftest import span_totals


@pytest.fixture()
def recorded(tmp_path):
    """Drive the real profiler into a span file; yield (file, memory) rows."""
    previous_enabled = PROFILER.enabled
    PROFILER.attach(tmp_path / "spans.jsonl")
    try:
        PROFILER.set_cell("cell-a")
        for _ in range(3):
            with PROFILER.section("t.outer"):
                with PROFILER.section("t.inner"):
                    pass
        PROFILER.set_cell(None)
        with PROFILER.section("t.outer"):
            pass
        in_memory = [span_row(span) for span in PROFILER.spans]
    finally:
        PROFILER.detach()
        PROFILER.enabled = previous_enabled
    return read_spans(tmp_path / "spans.jsonl"), in_memory


class TestRecorder:
    def test_one_span_per_section_pop(self, recorded):
        spans, _ = recorded
        names = sorted(span["name"] for span in spans)
        assert names == ["t.inner"] * 3 + ["t.outer"] * 4

    def test_cell_stamping_follows_set_cell(self, recorded):
        spans, _ = recorded
        by_cell = {}
        for span in spans:
            by_cell.setdefault(span["cell"], []).append(span["name"])
        assert sorted(by_cell["cell-a"]) == ["t.inner"] * 3 + ["t.outer"] * 3
        assert by_cell[None] == ["t.outer"]

    def test_spans_carry_pid(self, recorded):
        spans, _ = recorded
        assert {span["pid"] for span in spans} == {os.getpid()}

    def test_flush_counts_and_is_idempotent(self, tmp_path):
        profiler = SectionProfiler()
        profiler.attach(tmp_path / "s.jsonl")
        with profiler.section("a"):
            pass
        with profiler.section("b"):
            pass
        assert profiler.flush() == 2
        assert profiler.flush() == 0
        profiler.detach()
        assert len(read_spans(tmp_path / "s.jsonl")) == 2

    def test_reader_tolerates_torn_final_line(self, tmp_path):
        profiler = SectionProfiler()
        profiler.attach(tmp_path / "s.jsonl")
        with profiler.section("a"):
            pass
        profiler.detach()
        with open(tmp_path / "s.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"name": "b", "start')
        assert [s["name"] for s in read_spans(tmp_path / "s.jsonl")] == ["a"]


class TestSpanConservation:
    def test_rollup_matches_profiler_delta(self, recorded):
        # The file holds exactly the spans the profiler recorded, so the
        # per-section totals read back from it equal the in-memory ones.
        spans, in_memory = recorded
        assert spans == in_memory
        rollup = span_totals(spans)
        assert rollup == span_totals(in_memory)
        assert rollup["t.outer"]["calls"] == 4
        assert rollup["t.inner"]["calls"] == 3
        assert rollup["t.outer"]["total_ns"] == (
            rollup["t.outer"]["exclusive_ns"]
            + rollup["t.inner"]["total_ns"])


class TestCellConservation:
    def _ledger(self, cells):
        records = [{"kind": "group", "cells": list(cells),
                    "n": len(cells), "mode": "serial"}]
        for cell in cells:
            records.append({"kind": "cell", "cell": cell, "phase": "done",
                            "result": "simulated", "spanned": True})
        return records

    def _spans(self, n):
        return [{"name": "harness.cell", "start_ns": i, "dur_ns": 1,
                 "pid": 1, "cell": None} for i in range(n)]

    def test_exact_coverage_passes(self):
        assert check_cell_conservation(self._ledger(["a", "b"]),
                                       self._spans(1)) == []

    def test_span_group_count_mismatch(self):
        violations = check_cell_conservation(self._ledger(["a"]),
                                             self._spans(2))
        assert any("harness.cell spans" in v.message for v in violations)

    def test_uncovered_spanned_cell_detected(self):
        records = self._ledger(["a"])
        records.append({"kind": "cell", "cell": "ghost", "phase": "done",
                        "result": "simulated", "spanned": True})
        violations = check_cell_conservation(records, self._spans(1))
        assert any("ghost" in v.message for v in violations)

    def test_unspanned_store_hits_are_exempt(self):
        records = self._ledger(["a"])
        records.append({"kind": "cell", "cell": "hit", "phase": "done",
                        "result": "store_hit", "spanned": False})
        assert check_cell_conservation(records, self._spans(1)) == []


class TestChromeExport:
    def test_per_pid_normalisation_and_metadata(self):
        spans = [
            {"name": "a", "start_ns": 5_000_000, "dur_ns": 2_000,
             "pid": 10, "cell": "c1"},
            {"name": "b", "start_ns": 5_001_000, "dur_ns": 1_000,
             "pid": 10, "cell": None},
            {"name": "a", "start_ns": 9_000_000, "dur_ns": 4_000,
             "pid": 20, "cell": None},
        ]
        events = spans_to_chrome(spans)
        assert all(event["pid"] == HARNESS_PID for event in events)
        timed = [e for e in events if e["ph"] == "X"]
        # Each pid's earliest span normalises to ts 0 on its own track.
        by_tid = {}
        for event in timed:
            by_tid.setdefault(event["tid"], []).append(event)
        assert len(by_tid) == 2
        for events_on_tid in by_tid.values():
            assert min(e["ts"] for e in events_on_tid) == 0.0
        named = [e for e in events if e["ph"] == "M"
                 and e["name"] == "thread_name"]
        assert {e["args"]["name"] for e in named} == {"pid 10", "pid 20"}
        cells = [e["args"]["cell"] for e in timed if "args" in e]
        assert cells == ["c1"]

    def test_merge_run_trace_combines_sources(self, tmp_path):
        profiler = SectionProfiler()
        profiler.attach(tmp_path / "spans.jsonl")
        with profiler.section("harness.cell"):
            pass
        profiler.detach()
        timeline = {"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 1, "name": "fetch",
             "ts": 0, "dur": 3}]}
        (tmp_path / "timeline-c1.json").write_text(json.dumps(timeline))
        (tmp_path / "timeline-bad.json").write_text("{not json")
        out = merge_run_trace(tmp_path, tmp_path / "merged.json")
        payload = json.loads(out.read_text())
        pids = {event["pid"] for event in payload["traceEvents"]}
        assert pids == {HARNESS_PID, 1}
        assert payload["metadata"]["sources"] == ["spans.jsonl",
                                                  "timeline-c1.json"]

    def test_module_level_set_cell_is_safe_without_recorder(self, tmp_path):
        # Cell stamps outside a run touch no file.
        profiler = SectionProfiler(enabled=True)
        profiler.set_cell("anything")  # must not raise
        with profiler.section("a"):
            pass
        assert profiler.path is None
        assert profiler.flush() == 0
        assert list(tmp_path.iterdir()) == []
