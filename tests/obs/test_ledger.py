"""The run ledger: manifest schema, lifecycle folding, stragglers.

Covers the contract points of :mod:`repro.obs.ledger`:

* the manifest is append-only schema-versioned JSONL whose reader
  tolerates a torn final line (crashed-run diagnosability);
* ``summarize`` folds lifecycle records into per-cell states with exact
  terminal/incomplete detection;
* ``start_run`` installs and fully restores the process telemetry
  (active ledger, the profiler's span file, profiler enablement), and
  is inert when disabled;
* straggler flagging is pure median arithmetic over ledger walls.
"""

from __future__ import annotations

import os

import pytest

from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.obs import ledger as ledger_mod
from repro.obs import spans as spans_mod
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    active_ledger,
    cell_id_for,
    flag_stragglers,
    ledger_enabled,
    list_runs,
    load_run,
    read_manifest,
    start_run,
    summarize,
)
from repro.obs.profiler import PROFILER


@pytest.fixture()
def enabled_ledger(monkeypatch):
    """Opt back in (the suite-wide autouse fixture disables the layer)."""
    monkeypatch.setenv("REPRO_LEDGER", "1")


class TestEnablement:
    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert ledger_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", "OFF"])
    def test_falsy_values_disable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_LEDGER", value)
        assert not ledger_enabled()

    def test_truthy_value_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "1")
        assert ledger_enabled()


class TestManifest:
    def test_header_carries_schema_and_fingerprints(self, tmp_path):
        ledger = RunLedger.create("stats check", root=tmp_path)
        ledger.close()
        records = read_manifest(ledger.manifest_path)
        header = records[0]
        assert header["kind"] == "run_header"
        assert header["schema_version"] == LEDGER_SCHEMA_VERSION
        assert header["command"] == "stats check"
        assert header["code"] and header["schema"]
        assert header["run_id"] == ledger.run_id

    def test_records_are_stamped_and_ordered(self, tmp_path):
        ledger = RunLedger.create("x", root=tmp_path)
        ledger.cell("c1", "queued")
        ledger.cell("c1", "done", result="simulated")
        ledger.close()
        kinds = [r["kind"] for r in read_manifest(ledger.manifest_path)]
        assert kinds == ["run_header", "cell", "cell"]
        for record in read_manifest(ledger.manifest_path):
            assert record["pid"] == os.getpid()
            assert record["ts"] > 0

    def test_reader_tolerates_torn_final_line(self, tmp_path):
        ledger = RunLedger.create("x", root=tmp_path)
        ledger.cell("c1", "queued")
        ledger.close()
        with open(ledger.manifest_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "cell", "cel')  # crashed mid-write
        records = read_manifest(ledger.manifest_path)
        assert [r["kind"] for r in records] == ["run_header", "cell"]

    def test_reader_missing_file_is_empty(self, tmp_path):
        assert read_manifest(tmp_path / "nope.jsonl") == []

    def test_attach_appends_to_existing_run(self, tmp_path):
        ledger = RunLedger.create("x", root=tmp_path)
        ledger.close()
        worker = RunLedger.attach(ledger.run_dir)
        worker.cell("c9", "done", result="simulated")
        worker.close()
        records = read_manifest(ledger.manifest_path)
        assert records[-1]["cell"] == "c9"
        assert worker.run_id == ledger.run_id

    def test_heartbeat_rate_limited_per_process(self, tmp_path):
        ledger = RunLedger.create("x", root=tmp_path)
        ledger.heartbeat(cell="a")
        ledger.heartbeat(cell="b")  # within min_interval: swallowed
        ledger.heartbeat(min_interval=0.0, cell="c")
        ledger.close()
        beats = [r for r in read_manifest(ledger.manifest_path)
                 if r["kind"] == "heartbeat"]
        assert [b["cell"] for b in beats] == ["a", "c"]

    def test_timeline_path_sanitises_cell_id(self, tmp_path):
        ledger = RunLedger(tmp_path, "r")
        path = ledger.timeline_path("voter+bolt:s0:ab/..cd")
        assert path.name == "timeline-voter+bolt_s0_ab_..cd.json"


class TestCellIdentity:
    def test_stable_across_equal_configs(self):
        assert (cell_id_for("voter", FrontEndConfig(), 0, False)
                == cell_id_for("voter", FrontEndConfig(), 0, False))

    def test_distinguishes_cells(self):
        base = FrontEndConfig()
        skia = FrontEndConfig(skia=SkiaConfig())
        ids = {cell_id_for("voter", base, 0, False),
               cell_id_for("voter", skia, 0, False),
               cell_id_for("noop", base, 0, False),
               cell_id_for("voter", base, 1, False),
               cell_id_for("voter", base, 0, True)}
        assert len(ids) == 5

    def test_bolted_marker_is_readable(self):
        assert cell_id_for("kafka", FrontEndConfig(), 2, True).startswith(
            "kafka+bolt:s2:")


class TestSummarize:
    def _records(self):
        return [
            {"kind": "run_header", "run_id": "r1", "command": "c",
             "created": "t", "schema_version": 1},
            {"kind": "grid", "cells": 2},
            {"kind": "cell", "cell": "a", "phase": "queued"},
            {"kind": "cell", "cell": "b", "phase": "queued"},
            {"kind": "group", "cells": ["a"], "n": 1, "mode": "serial"},
            {"kind": "cell", "cell": "a", "phase": "done",
             "result": "simulated", "wall_s": 1.5},
            {"kind": "heartbeat", "pid": 42},
            {"kind": "finish", "status": "complete"},
        ]

    def test_folds_lifecycle(self):
        summary = summarize(self._records())
        assert summary.run_id == "r1"
        assert summary.grid_cells == 2
        assert summary.groups == 1 and summary.group_cells == 1
        assert summary.heartbeat_pids == {42}
        assert summary.cells["a"].terminal == "done"
        assert summary.cells["a"].wall_s == 1.5

    def test_incomplete_cells_detected(self):
        summary = summarize(self._records())
        assert summary.incomplete == ["b"]
        assert "incomplete" in summary.status

    def test_results_histogram(self):
        records = self._records() + [
            {"kind": "cell", "cell": "b", "phase": "error", "error": "boom"}]
        summary = summarize(records)
        assert summary.results() == {"simulated": 1, "error": 1}
        assert summary.incomplete == []

    def test_no_finish_reads_as_crashed(self):
        records = [r for r in self._records() if r["kind"] != "finish"]
        assert summarize(records).status == "running/crashed"

    def test_straggler_phase_flags_cell(self):
        records = self._records() + [
            {"kind": "cell", "cell": "a", "phase": "straggler",
             "wall_s": 9.0}]
        assert summarize(records).stragglers == ["a"]


class TestRunIndex:
    def test_list_runs_newest_first(self, tmp_path):
        first = RunLedger.create("one", root=tmp_path, run_id="20240101-aa")
        first.close()
        second = RunLedger.create("two", root=tmp_path, run_id="20240102-bb")
        second.close()
        summaries = list_runs(tmp_path)
        assert [s.run_id for s in summaries] == ["20240102-bb", "20240101-aa"]
        assert ledger_mod.latest_run_id(tmp_path) == "20240102-bb"

    def test_load_run_round_trips(self, tmp_path):
        ledger = RunLedger.create("cmd", root=tmp_path)
        ledger.cell("a", "queued")
        ledger.cell("a", "done", result="simulated")
        ledger.finish()
        ledger.close()
        summary = load_run(ledger.run_id, tmp_path)
        assert summary.command == "cmd"
        assert summary.incomplete == []
        assert summary.status == "complete"

    def test_empty_root(self, tmp_path):
        assert list_runs(tmp_path / "nothing") == []
        assert ledger_mod.latest_run_id(tmp_path / "nothing") is None


class TestStartRun:
    def test_installs_and_restores_telemetry(self, tmp_path, enabled_ledger):
        assert active_ledger() is None
        previous_enabled = PROFILER.enabled
        with start_run("t", root=tmp_path) as ledger:
            assert active_ledger() is ledger
            assert PROFILER.enabled is True
            assert PROFILER.path == ledger.spans_path
            with PROFILER.section("t.section"):
                pass
        assert active_ledger() is None
        assert PROFILER.path is None
        assert PROFILER.spans == []
        assert PROFILER.enabled is previous_enabled
        records = read_manifest(ledger.manifest_path)
        assert records[-1]["kind"] == "finish"
        assert records[-1]["status"] == "complete"
        # The run's end flushed the section to its span file, the only
        # artifact besides the manifest.
        spans = spans_mod.read_spans(ledger.spans_path)
        assert [s["name"] for s in spans] == ["t.section"]
        assert sorted(p.name for p in ledger.run_dir.iterdir()) == [
            "manifest.jsonl", "spans.jsonl"]

    def test_disabled_by_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        with start_run("t", root=tmp_path) as ledger:
            assert ledger is None
            assert active_ledger() is None
        assert list(tmp_path.iterdir()) == []

    def test_nested_run_reuses_outer(self, tmp_path, enabled_ledger):
        with start_run("outer", root=tmp_path) as outer:
            with start_run("inner", root=tmp_path) as inner:
                assert inner is None
                assert active_ledger() is outer

    def test_exception_marks_run_errored(self, tmp_path, enabled_ledger):
        with pytest.raises(RuntimeError):
            with start_run("t", root=tmp_path) as ledger:
                raise RuntimeError("boom")
        records = read_manifest(ledger.manifest_path)
        assert records[-1]["kind"] == "finish"
        assert records[-1]["status"] == "error"
        assert active_ledger() is None

    def test_active_ledger_is_pid_guarded(self, tmp_path, enabled_ledger,
                                          monkeypatch):
        with start_run("t", root=tmp_path) as ledger:
            assert active_ledger() is ledger
            # A forked worker inherits the module state but not the pid:
            monkeypatch.setattr(ledger_mod, "_ACTIVE_PID",
                                os.getpid() + 1)
            assert active_ledger() is None

    def test_run_spans_exclude_earlier_sections(self, tmp_path,
                                                enabled_ledger):
        # Sections recorded *before* the run must not leak into the
        # run's span file (fork inheritance / prior CLI commands).
        previous_enabled = PROFILER.enabled
        PROFILER.enabled = True
        try:
            with PROFILER.section("t.before"):
                pass
            with start_run("t", root=tmp_path) as ledger:
                with PROFILER.section("t.during"):
                    pass
        finally:
            PROFILER.enabled = previous_enabled
        names = [s["name"] for s in spans_mod.read_spans(ledger.spans_path)]
        assert names == ["t.during"]


class TestFlagStragglers:
    def _done(self, ledger, cell, wall, **fields):
        ledger.cell(cell, "done", result="simulated", wall_s=wall, **fields)

    def test_flags_beyond_factor_median(self, tmp_path):
        ledger = RunLedger.create("t", root=tmp_path)
        for index in range(5):
            self._done(ledger, f"c{index}", 1.0)
        self._done(ledger, "slow", 10.0)
        flagged = flag_stragglers(ledger)
        assert flagged == ["slow"]
        records = read_manifest(ledger.manifest_path)
        straggler = [r for r in records if r.get("phase") == "straggler"]
        assert len(straggler) == 1
        assert straggler[0]["cell"] == "slow"
        assert straggler[0]["median_s"] == 1.0
        ledger.close()

    def test_idempotent(self, tmp_path):
        ledger = RunLedger.create("t", root=tmp_path)
        for index in range(5):
            self._done(ledger, f"c{index}", 1.0)
        self._done(ledger, "slow", 10.0)
        assert flag_stragglers(ledger) == ["slow"]
        assert flag_stragglers(ledger) == []  # already flagged
        ledger.close()

    def test_flags_every_lane_of_a_slow_group(self, tmp_path):
        # Kernel lanes share their group's wall: the median is over one
        # wall per group (a lone cell is a group of one), and an
        # outlier group flags all of its lanes.
        ledger = RunLedger.create("t", root=tmp_path)
        for group, wall in enumerate((1.0, 1.1, 0.9, 1.0, 12.0)):
            lanes = [f"g{group}.{lane}" for lane in range(3)]
            ledger.group(lanes)
            for lane, cell in enumerate(lanes):
                self._done(ledger, cell, wall + lane * 0.01,
                           shared_wall=True)
        self._done(ledger, "lone", 1.0)
        assert flag_stragglers(ledger) == ["g4.0", "g4.1", "g4.2"]
        records = read_manifest(ledger.manifest_path)
        straggler = [r for r in records if r.get("phase") == "straggler"]
        assert {r["wall_s"] for r in straggler} == {12.02}
        assert {r["median_s"] for r in straggler} == {1.02}
        ledger.close()

    def test_needs_min_samples(self, tmp_path):
        ledger = RunLedger.create("t", root=tmp_path)
        self._done(ledger, "a", 1.0)
        self._done(ledger, "slow", 100.0)
        assert flag_stragglers(ledger) == []
        ledger.close()

    def test_shared_walls_excluded_from_median(self, tmp_path):
        # Batched-group cells share one wall; its lanes must not skew
        # the median one sample each: twenty fast lanes are one group
        # wall, so the lone 1 s cells stay at the median.
        ledger = RunLedger.create("t", root=tmp_path)
        for index in range(5):
            self._done(ledger, f"c{index}", 1.0)
        lanes = [f"lane{index}" for index in range(20)]
        ledger.group(lanes)
        for cell in lanes:
            self._done(ledger, cell, 0.2, shared_wall=True)
        assert flag_stragglers(ledger) == []
        ledger.close()
