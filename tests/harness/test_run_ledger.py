"""End-to-end run-ledger integration: serial == parallel, conserved.

Runs a real (tiny) cell grid under ``start_run`` both serially and with
a two-worker pool and asserts the acceptance contract of the ledger
layer:

* every cell reaches a terminal state in both modes;
* serial and parallel manifests are **semantically identical** once
  normalised (ordering and host-specific fields aside): same cell ids,
  same lifecycle phases, same outcomes;
* ``spans.jsonl`` holds every span the profiler recorded exactly once,
  under the pid that timed it, and the ``harness.cell`` span population
  covers exactly the spanned terminal cells, in both modes (the
  cell-conservation invariant of :mod:`repro.obs.spans`).
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.harness.parallel import Cell
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import Scale
from repro.obs import ledger as ledger_mod
from repro.obs.profiler import PROFILER, span_row
from repro.obs.spans import check_cell_conservation, read_spans
from repro.workloads.cache import WorkloadCache

TINY = Scale("test", records=6_000, warmup=2_000)

GRID = [Cell(workload, config)
        for workload in ("noop", "voter")
        for config in (FrontEndConfig(), FrontEndConfig(skia=SkiaConfig()))]

#: Fields that legitimately differ between serial and parallel runs
#: (host-specific measurements and execution-strategy choices).
VARIANT_FIELDS = frozenset({
    "wall_s", "shared_wall", "source", "mode", "hit", "store",
    "group_wall_s",
})


def _ledgered_run(tmp_path, monkeypatch, jobs: int):
    monkeypatch.setenv("REPRO_LEDGER", "1")
    monkeypatch.setenv("REPRO_NO_PROGRESS", "1")
    root = tmp_path / f"runs-j{jobs}"
    with ledger_mod.start_run(f"test jobs={jobs}", root=root) as ledger:
        runner = ExperimentRunner(scale=TINY, cache=WorkloadCache(),
                                  store=None)
        stats = runner.run_cells(GRID, jobs=jobs)
        run_dir = ledger.run_dir
        # This process's spans, before the run's end flushes them.
        parent_spans = [span_row(span) for span in PROFILER.spans]
    return stats, run_dir, parent_spans


@pytest.fixture(scope="module")
def ledgered_runs(tmp_path_factory):
    with pytest.MonkeyPatch.context() as monkeypatch:
        tmp_path = tmp_path_factory.mktemp("ledger-agreement")
        serial = _ledgered_run(tmp_path, monkeypatch, jobs=1)
        parallel = _ledgered_run(tmp_path, monkeypatch, jobs=2)
    return {"serial": serial, "parallel": parallel}


def _summary(run_dir):
    return ledger_mod.summarize(
        ledger_mod.read_manifest(run_dir / "manifest.jsonl"), run_dir)


def _normalised_cells(run_dir):
    """Per-cell (phases, outcome-fields) with host-variant fields removed."""
    summary = _summary(run_dir)
    out = {}
    for cell_id, state in summary.cells.items():
        fields = {key: value for key, value in state.fields.items()
                  if key not in VARIANT_FIELDS}
        out[cell_id] = (tuple(sorted(state.phases)), fields)
    return out


class TestCompleteness:
    @pytest.mark.parametrize("mode", ["serial", "parallel"])
    def test_every_cell_terminal(self, ledgered_runs, mode):
        _, run_dir, _ = ledgered_runs[mode]
        summary = _summary(run_dir)
        assert len(summary.cells) == len(GRID)
        assert summary.incomplete == []
        assert summary.status == "complete"

    @pytest.mark.parametrize("mode", ["serial", "parallel"])
    def test_all_cells_simulated(self, ledgered_runs, mode):
        _, run_dir, _ = ledgered_runs[mode]
        assert _summary(run_dir).results() == {"simulated": len(GRID)}

    def test_parallel_run_heartbeats(self, ledgered_runs):
        _, run_dir, _ = ledgered_runs["parallel"]
        assert _summary(run_dir).heartbeat_pids


class TestSerialParallelAgreement:
    def test_stats_bit_identical(self, ledgered_runs):
        serial_stats, _, _ = ledgered_runs["serial"]
        parallel_stats, _, _ = ledgered_runs["parallel"]
        assert serial_stats == parallel_stats

    def test_manifests_semantically_identical(self, ledgered_runs):
        _, serial_dir, _ = ledgered_runs["serial"]
        _, parallel_dir, _ = ledgered_runs["parallel"]
        assert (_normalised_cells(serial_dir)
                == _normalised_cells(parallel_dir))

    def test_grid_shape_recorded_identically(self, ledgered_runs):
        shapes = []
        for mode in ("serial", "parallel"):
            _, run_dir, _ = ledgered_runs[mode]
            summary = _summary(run_dir)
            shapes.append((summary.grid_cells, summary.group_cells))
        assert shapes[0][0] == shapes[1][0] == len(GRID)
        # Every cell is covered by exactly one harness.cell section in
        # both modes (groups batch differently, coverage is identical).
        assert shapes[0][1] == shapes[1][1] == len(GRID)


class TestConservation:
    @pytest.mark.parametrize("mode", ["serial", "parallel"])
    def test_span_profiler_conservation(self, ledgered_runs, mode):
        # The run's file holds exactly what this process's profiler
        # recorded: nothing dropped, duplicated or re-stamped.
        _, run_dir, parent_spans = ledgered_runs[mode]
        spans = read_spans(run_dir / "spans.jsonl")
        assert parent_spans
        assert [span for span in spans
                if span["pid"] == os.getpid()] == parent_spans

    @pytest.mark.parametrize("mode", ["serial", "parallel"])
    def test_spans_written_once(self, ledgered_runs, mode):
        # Forked workers inherit the parent's unflushed spans; only the
        # parent may write them, so no (pid, name, start) repeats.
        _, run_dir, _ = ledgered_runs[mode]
        spans = read_spans(run_dir / "spans.jsonl")
        records = ledger_mod.read_manifest(run_dir / "manifest.jsonl")
        repeats = Counter((span["pid"], span["name"], span["start_ns"])
                          for span in spans)
        assert max(repeats.values()) == 1
        assert check_cell_conservation(records, spans) == []

    @pytest.mark.parametrize("mode", ["serial", "parallel"])
    def test_span_cell_conservation(self, ledgered_runs, mode):
        _, run_dir, _ = ledgered_runs[mode]
        records = ledger_mod.read_manifest(run_dir / "manifest.jsonl")
        spans = read_spans(run_dir / "spans.jsonl")
        assert check_cell_conservation(records, spans) == []

    def test_parallel_spans_from_multiple_processes(self, ledgered_runs):
        _, run_dir, _ = ledgered_runs["parallel"]
        spans = read_spans(run_dir / "spans.jsonl")
        assert len({span["pid"] for span in spans}) >= 2
