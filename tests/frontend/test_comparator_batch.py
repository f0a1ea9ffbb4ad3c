"""Comparator cells on the batched lane kernel, plus fallback telemetry.

The contract:

* every registered comparator design runs on the kernel bit-identically
  to the ``run_compiled`` oracle (SimStats *and* metric snapshot), alone
  and stacked with Skia;
* the harness runs comparator grids on the kernel in both serial and
  parallel modes without changing a single counter;
* runs that cannot fast-forward are counted and logged once per reason
  -- never silently, and never as a metric-snapshot gauge.
"""

import dataclasses
import logging

import pytest

from repro.frontend.batch import (
    BatchedFrontEndSimulator,
    run_compiled_batched,
)
from repro.frontend.comparators import COMPARATOR_NAMES
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.frontend.fastforward import (
    note_reason,
    reason_counts,
    reset_reasons,
)
from repro.harness.parallel import Cell, ParallelRunner
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import Scale
from repro.workloads import build_program, build_trace, compile_trace
from tests.frontend.oracle import oracle_cells, refuse_oracle

RECORDS = 1_000
WARMUP = 150

#: A small BTB creates the capacity re-misses the comparators cover, so
#: their hooks (lookup/record/on_btb_miss) actually fire in these runs.
_SMALL_BTB = FrontEndConfig().with_btb_entries(256)

#: Every design alone, one stacked with Skia, and a deeper FDIP point.
COMPARATOR_CONFIGS = {
    **{name: _SMALL_BTB.with_comparator(name) for name in COMPARATOR_NAMES},
    "fdip-depth4": _SMALL_BTB.with_fdip_depth(4),
    "airbtb+skia": _SMALL_BTB.with_comparator("airbtb").with_skia(
        SkiaConfig()),
}


def _oracle_run(program, records, config, seed=0):
    simulator = FrontEndSimulator(program, config, seed=seed)
    stats = simulator.run(records, warmup=WARMUP)
    return dataclasses.asdict(stats), simulator.metrics_snapshot()


def _batched_run(program, compiled, config, seed=0):
    simulator = FrontEndSimulator(program, config, seed=seed)
    stats = run_compiled_batched(simulator, compiled, warmup=WARMUP)
    return dataclasses.asdict(stats), simulator.metrics_snapshot()


@pytest.mark.parametrize("name", sorted(COMPARATOR_CONFIGS))
def test_comparator_cell_bit_identity(name):
    """Oracle == batched kernel for every comparator design."""
    config = COMPARATOR_CONFIGS[name]
    for workload in ("voter", "kafka"):
        program = build_program(workload, seed=0)
        records = build_trace(workload, RECORDS, seed=0)
        compiled = compile_trace(records)
        obj_stats, obj_metrics = _oracle_run(program, records, config)
        bat_stats, bat_metrics = _batched_run(program, compiled, config)
        assert bat_stats == obj_stats, (workload, name)
        assert bat_metrics == obj_metrics, (workload, name)


def test_comparator_hooks_fire_on_kernel():
    """The equivalence above is not vacuous: the kernel actually drives
    the comparator (probes on BTB misses, predecodes, demand hits)."""
    program = build_program("voter", seed=0)
    compiled = compile_trace(build_trace("voter", RECORDS, seed=0))
    simulator = FrontEndSimulator(program, _SMALL_BTB.with_fdip_depth(2),
                                  seed=0)
    run_compiled_batched(simulator, compiled, warmup=WARMUP)
    metrics = simulator.metrics_snapshot()
    assert metrics["comparator.lookups"] > 0
    assert metrics["comparator.predecodes"] > 0
    assert metrics["comparator.hits"] > 0


def test_comparator_lane_sharing():
    """All designs as lanes over one shared compiled table."""
    program = build_program("voter", seed=0)
    records = build_trace("voter", RECORDS, seed=0)
    compiled = compile_trace(records)
    shared = BatchedFrontEndSimulator(chunk_records=257)
    simulators = [FrontEndSimulator(program, config, seed=0)
                  for config in COMPARATOR_CONFIGS.values()]
    for simulator in simulators:
        shared.add_lane(simulator, compiled, warmup=WARMUP)
    results = shared.run()
    for simulator, stats, (name, config) in zip(simulators, results,
                                                COMPARATOR_CONFIGS.items()):
        expect_stats, expect_metrics = _oracle_run(program, records, config)
        assert dataclasses.asdict(stats) == expect_stats, name
        assert simulator.metrics_snapshot() == expect_metrics, name


def test_comparator_cells_are_batch_supported(monkeypatch):
    """The harness runs every comparator cell on the kernel."""
    refuse_oracle(monkeypatch)
    runner = ExperimentRunner(scale=Scale("comparatorsupported",
                                          records=200, warmup=50),
                              store=None)
    cells = [Cell("voter", config, 0, False)
             for config in COMPARATOR_CONFIGS.values()]
    assert all(stats.blocks == 150 for stats in runner.run_cells(cells))


class TestHarnessPaths:
    """Comparator grids stay bit-identical through the harness routing."""

    SCALE = Scale("comparatorbatch", records=RECORDS, warmup=WARMUP)
    CELLS = [Cell(workload, config, seed, False)
             for workload in ("voter", "kafka")
             for config in COMPARATOR_CONFIGS.values()
             for seed in (0, 1)]

    def test_serial_batched_matches_object_path(self):
        reference = oracle_cells(self.SCALE, self.CELLS)
        runner = ExperimentRunner(scale=self.SCALE, store=None)
        batched = runner.run_cells(self.CELLS)
        for expect, got, cell in zip(reference, batched, self.CELLS):
            assert dataclasses.asdict(got) == dataclasses.asdict(expect), \
                cell

    def test_worker_batched_matches_object_path(self):
        reference = oracle_cells(self.SCALE, self.CELLS)
        runner = ParallelRunner(scale=self.SCALE, jobs=2, store=None)
        batched = runner.run_batch(self.CELLS)
        for expect, got, cell in zip(reference, batched, self.CELLS):
            assert dataclasses.asdict(got) == dataclasses.asdict(expect), \
                cell


class TestFallbackObservability:
    """Every harness cell runs on the kernel; runs that cannot
    fast-forward are counted and logged once per reason, and never
    flagged in their metric snapshot."""

    SCALE = Scale("fallbackobs", records=200, warmup=50)

    @pytest.fixture(autouse=True)
    def _clean_counters(self):
        reset_reasons()
        yield
        reset_reasons()

    def test_supported_cells_never_trip_the_fallback(self, monkeypatch):
        refuse_oracle(monkeypatch)
        runner = ExperimentRunner(scale=self.SCALE, store=None)
        cells = [Cell("voter", config, 0, False)
                 for config in (FrontEndConfig(),
                                _SMALL_BTB.with_comparator("microbtb"),
                                FrontEndConfig(skia=SkiaConfig()))]
        runner.run_cells(cells)
        assert reason_counts()["comparator attached"] == 1

    def test_attribution_cell_counts_and_gauges(self, monkeypatch):
        """Runs on the kernel (counted only as a fast-forward reason),
        and no gauge in the cell's own snapshot."""
        refuse_oracle(monkeypatch)
        runner = ExperimentRunner(scale=self.SCALE, store=None,
                                  record_attribution=True)
        config = FrontEndConfig(skia=SkiaConfig())
        runner.run("voter", config)
        assert reason_counts()["attribution attached"] == 1
        metrics = runner.metrics_for("voter", config)
        assert not any(key.startswith("batch.") for key in metrics)

    def test_supported_cell_snapshot_has_no_fallback_gauge(self):
        runner = ExperimentRunner(scale=self.SCALE, store=None)
        runner.run("voter", FrontEndConfig())
        metrics = runner.metrics_for("voter", FrontEndConfig())
        assert not any(key.startswith("batch.") for key in metrics)

    def test_reason_logged_once(self, caplog):
        with caplog.at_level(logging.INFO,
                             logger="repro.frontend.fastforward"):
            for _ in range(3):
                note_reason("timeline recorder attached")
        messages = [record for record in caplog.records
                    if "timeline recorder attached" in record.getMessage()]
        assert len(messages) == 1
        assert reason_counts() == {"timeline recorder attached": 3}
