"""Bit-identity of the batched lane kernel against ``run_compiled``.

The batched kernel (:mod:`repro.frontend.batch`) re-implements the
replay loop with inlined structures and chunk-local counters;
``FrontEndSimulator.run_compiled`` (which ``run`` calls on lowered
records) stays the oracle.  These tests pin the contract: for every
cell of the Figure-14 grid, the kernel's ``SimStats`` *and* metric
snapshot (structure counters, cache gauges, SBB/RAS/predictor state)
are bit-identical to the oracle -- across seeds, with and without
numpy, through lane sharing, and through the harness plumbing that
runs every cell on the kernel -- and one gate decides whether a run may
fast-forward.
"""

import dataclasses

import pytest

import repro.frontend.batch as batch_mod
import repro.workloads.compiled as compiled_mod
from repro.frontend.batch import (
    BatchedFrontEndSimulator,
    run_compiled_batched,
)
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.frontend.fastforward import fastforward_reason
from repro.harness.parallel import Cell, ParallelRunner
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import Scale
from repro.obs import EventTrace
from repro.obs.intervals import IntervalCollector
from repro.workloads import (
    WORKLOAD_NAMES,
    build_program,
    build_trace,
    compile_trace,
)
from tests.frontend.oracle import oracle_cells, refuse_oracle

RECORDS = 1_000
WARMUP = 150

#: The four Figure-14 configurations: FDIP baseline, Skia with only one
#: shadow-branch half enabled, and full Skia.
CONFIGS = {
    "base": FrontEndConfig(),
    "head": FrontEndConfig(skia=SkiaConfig(decode_tails=False)),
    "tail": FrontEndConfig(skia=SkiaConfig(decode_heads=False)),
    "both": FrontEndConfig(skia=SkiaConfig()),
}


def _oracle_run(program, records, config, seed=0, warmup=WARMUP):
    simulator = FrontEndSimulator(program, config, seed=seed)
    stats = simulator.run(records, warmup=warmup)
    return dataclasses.asdict(stats), simulator.metrics_snapshot()


def _batched_run(program, compiled, config, seed=0, warmup=WARMUP):
    simulator = FrontEndSimulator(program, config, seed=seed)
    stats = run_compiled_batched(simulator, compiled, warmup=warmup)
    return dataclasses.asdict(stats), simulator.metrics_snapshot()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_fig14_grid_bit_identity(workload):
    """Every (workload, config) cell: oracle == batched kernel."""
    program = build_program(workload, seed=0)
    records = build_trace(workload, RECORDS, seed=0)
    compiled = compile_trace(records)
    for name, config in CONFIGS.items():
        obj_stats, obj_metrics = _oracle_run(program, records, config)
        bat_stats, bat_metrics = _batched_run(program, compiled, config)
        assert bat_stats == obj_stats, (workload, name)
        assert bat_metrics == obj_metrics, (workload, name)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seed_sweep_bit_identity(seed):
    """Seeds beyond the grid default stay bit-identical too."""
    for workload in ("voter", "kafka"):
        program = build_program(workload, seed=seed)
        records = build_trace(workload, RECORDS, seed=seed)
        compiled = compile_trace(records)
        for name, config in CONFIGS.items():
            assert (_batched_run(program, compiled, config, seed=seed)
                    == _oracle_run(program, records, config, seed=seed)), \
                (workload, name, seed)


def test_lane_sharing_matches_independent_runs():
    """N lanes over one shared table == N independent kernel runs."""
    program = build_program("voter", seed=0)
    records = build_trace("voter", RECORDS, seed=0)
    compiled = compile_trace(records)
    batch = BatchedFrontEndSimulator(chunk_records=257)  # force many chunks
    simulators = [FrontEndSimulator(program, config, seed=0)
                  for config in CONFIGS.values()]
    for simulator in simulators:
        batch.add_lane(simulator, compiled, warmup=WARMUP)
    shared = batch.run()
    for simulator, stats, (name, config) in zip(simulators, shared,
                                                CONFIGS.items()):
        expect_stats, expect_metrics = _oracle_run(program, records, config)
        assert dataclasses.asdict(stats) == expect_stats, name
        assert simulator.metrics_snapshot() == expect_metrics, name


class TestEdgeCases:
    CONFIG = FrontEndConfig(skia=SkiaConfig())

    def _both_paths(self, records, warmup):
        program = build_program("voter", seed=0)
        compiled = compile_trace(records)
        return (_oracle_run(program, records, self.CONFIG, warmup=warmup),
                _batched_run(program, compiled, self.CONFIG, warmup=warmup))

    def test_empty_trace(self):
        obj, bat = self._both_paths([], warmup=0)
        assert bat == obj

    def test_single_record_trace(self):
        records = build_trace("voter", 1, seed=0)
        obj, bat = self._both_paths(records, warmup=0)
        assert bat == obj

    def test_warmup_exceeds_trace_length(self):
        records = build_trace("voter", 50, seed=0)
        obj, bat = self._both_paths(records, warmup=500)
        assert bat == obj

    def test_warmup_equals_trace_length(self):
        records = build_trace("voter", 50, seed=0)
        obj, bat = self._both_paths(records, warmup=50)
        assert bat == obj

    def test_warmup_boundary_mid_chunk(self):
        """The advance() warmup split, exercised inside one chunk."""
        program = build_program("voter", seed=0)
        records = build_trace("voter", 300, seed=0)
        compiled = compile_trace(records)
        simulator = FrontEndSimulator(program, self.CONFIG, seed=0)
        batch = BatchedFrontEndSimulator(chunk_records=128)
        batch.add_lane(simulator, compiled, warmup=200)
        stats = batch.run()[0]
        expect_stats, expect_metrics = _oracle_run(
            program, records, self.CONFIG, warmup=200)
        assert dataclasses.asdict(stats) == expect_stats
        assert simulator.metrics_snapshot() == expect_metrics


#: Lockstep chunk sizes for the partial-chunk checks: one record per
#: round, a prime that splits rounds at every offset, and the default.
PARTIAL_CHUNKS = (1, 7, 4096)

#: Interval window that lands mid-chunk for chunk sizes 7 and 4096
#: (WARMUP=150 does too).
PARTIAL_WINDOW = 100


def _run_with_intervals(program, compiled, config, chunk_records=None):
    """``(stats, metrics, interval series)`` of one cell: the
    ``run_compiled`` oracle when ``chunk_records`` is None, else a
    single-lane kernel stepping rounds of ``chunk_records``."""
    config = dataclasses.replace(config, interval_size=PARTIAL_WINDOW)
    simulator = FrontEndSimulator(program, config, seed=0)
    if chunk_records is None:
        stats = simulator.run_compiled(compiled, warmup=WARMUP)
    else:
        batch = BatchedFrontEndSimulator(chunk_records=chunk_records)
        batch.add_lane(simulator, compiled, warmup=WARMUP)
        stats = batch.run()[0]
    return (dataclasses.asdict(stats), simulator.metrics_snapshot(),
            simulator.intervals.series().to_json_text())


def _assert_partial_chunks(program, compiled, expected):
    """Every chunk size matches the oracle, so each round's row slice
    offsets are right wherever warm-up and window boundaries fall."""
    for chunk_records in PARTIAL_CHUNKS:
        for name, config in CONFIGS.items():
            got = _run_with_intervals(program, compiled, config,
                                      chunk_records)
            assert got == expected[name], (name, chunk_records)


def test_numpy_absent_fallback(monkeypatch):
    """Pure-Python row derivation is bit-identical to the numpy path."""
    program = build_program("voter", seed=0)
    records = build_trace("voter", RECORDS, seed=0)
    expected = {
        name: _oracle_run(program, records, config)
        for name, config in CONFIGS.items()
    }
    oracle_trace = compile_trace(records)
    expected_partial = {
        name: _run_with_intervals(program, oracle_trace, config)
        for name, config in CONFIGS.items()
    }
    monkeypatch.setattr(compiled_mod, "_np", None)
    compiled = compile_trace(records)  # fresh tables, built without numpy
    for name, config in CONFIGS.items():
        assert _batched_run(program, compiled, config) == expected[name], \
            name
    _assert_partial_chunks(program, compiled, expected_partial)


@pytest.mark.skipif(compiled_mod._np is None,
                    reason="numpy row derivation needs numpy")
def test_numpy_partial_chunks():
    """The numpy row derivation over partial chunks matches the oracle."""
    program = build_program("voter", seed=0)
    compiled = compile_trace(build_trace("voter", RECORDS, seed=0))
    expected = {
        name: _run_with_intervals(program, compiled, config)
        for name, config in CONFIGS.items()
    }
    _assert_partial_chunks(program, compiled, expected)


class TestSingleShot:
    """A batch runs once; replaying it would corrupt finished lanes."""

    def _ran_batch(self):
        program = build_program("voter", seed=0)
        compiled = compile_trace(build_trace("voter", 3_000, seed=0))
        simulator = FrontEndSimulator(program, CONFIGS["both"], seed=0)
        batch = BatchedFrontEndSimulator()
        batch.add_lane(simulator, compiled, warmup=500)
        stats = batch.run()[0]
        return batch, simulator, compiled, dataclasses.asdict(stats)

    def test_second_run_raises(self):
        batch, simulator, _, before = self._ran_batch()
        with pytest.raises(RuntimeError):
            batch.run()
        assert dataclasses.asdict(simulator.stats) == before
        assert simulator._records_seen == 3_000

    def test_add_lane_after_run_raises(self):
        batch, simulator, compiled, _ = self._ran_batch()
        late = FrontEndSimulator(simulator.program, FrontEndConfig(), seed=0)
        with pytest.raises(RuntimeError):
            batch.add_lane(late, compiled, warmup=500)
        assert len(batch) == 1


class TestLazyFusion:
    """Lane rows are fused per round, on demand, and shared."""

    CHUNK = 1_024
    WARMUP = 500

    def test_fused_once_per_round_and_only_where_stepped(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTFORWARD", "1")
        program = build_program("steady-stream", seed=0)
        compiled = compile_trace(build_trace("steady-stream", 24_000,
                                             seed=0))
        table = compiled.decode_table(FrontEndConfig().line_size)
        slots_before = {name: getattr(table, name)
                        for name in type(table).__slots__}
        int64_before = dict(table.int64)

        fused = []      # (round start, table, geometry, rows)
        stepped = set()  # (round start, table, geometry)
        fuse = batch_mod._lane_rows

        def spy_fuse(table, geometry, start, stop):
            rows = fuse(table, geometry, start, stop)
            fused.append((start, table, geometry, len(rows)))
            return rows

        advance = batch_mod._Lane._advance

        def spy_advance(lane, start, stop, round_):
            if stop > start:
                stepped.add((round_.start, lane.table, lane.geometry))
            return advance(lane, start, stop, round_)

        monkeypatch.setattr(batch_mod, "_lane_rows", spy_fuse)
        monkeypatch.setattr(batch_mod._Lane, "_advance", spy_advance)

        configs = list(CONFIGS.values()) + [
            FrontEndConfig().with_btb_entries(2048)]
        simulators = [FrontEndSimulator(program, config, seed=0)
                      for config in configs]
        batch = BatchedFrontEndSimulator(chunk_records=self.CHUNK)
        for simulator in simulators:
            batch.add_lane(simulator, compiled, warmup=self.WARMUP)
        batch.run()

        for simulator in simulators:
            assert simulator.fastforward_summary["skipped_records"] > 0
        keys = [(start, table, geometry)
                for start, table, geometry, _ in fused]
        geometries = {geometry for _, _, geometry in keys}
        assert len(geometries) == 2
        # One fusion per (round, table, geometry), shared by its lanes.
        assert len(keys) == len(set(keys))
        # Fused exactly where some lane of the geometry stepped: rounds
        # every such lane skipped past are never built.
        assert set(keys) == stepped
        rounds = -(-compiled.n_records // self.CHUNK)
        assert len(keys) < rounds * len(geometries)
        assert (sum(rows for *_, rows in fused)
                < compiled.n_records * len(geometries))
        # The table caches nothing per geometry.
        assert all(getattr(table, name) is value
                   for name, value in slots_before.items())
        assert table.int64.keys() == int64_before.keys()
        assert all(table.int64[name] is value
                   for name, value in int64_before.items())


#: One row per engine-plan case: (config, attach, REPRO_FASTFORWARD,
#: expected fast-forward reason).  Every case runs on the kernel.
PLAN_CASES = {
    "plain": (FrontEndConfig(), None, "1", None),
    "env-off": (FrontEndConfig(), None, "0", "disabled by env"),
    "event-trace": (FrontEndConfig(),
                    lambda sim: sim.attach_trace(EventTrace()), "1",
                    "event trace attached"),
    "timeline": (FrontEndConfig(record_timeline=True), None, "1",
                 "timeline recorder attached"),
    "attribution": (FrontEndConfig(),
                    lambda sim: sim.attach_attribution(), "1",
                    "attribution attached"),
    "comparator": (FrontEndConfig().with_comparator("airbtb"), None, "1",
                   "comparator attached"),
    "state-probe": (FrontEndConfig(),
                    lambda sim: sim.attach_intervals(IntervalCollector(
                        100, state_probe=lambda: "")), "1",
                    "state probe attached"),
}


@pytest.fixture()
def no_oracle(monkeypatch):
    refuse_oracle(monkeypatch)


class TestSupportGating:
    """Every harness cell runs on the kernel, observed or not; one gate
    decides whether its run may fast-forward, and why not."""

    SCALE = Scale("supportgating", records=RECORDS, warmup=WARMUP)

    def _simulator(self, config=None):
        program = build_program("voter", seed=0)
        return FrontEndSimulator(program, config or FrontEndConfig(),
                                 seed=0)

    @pytest.mark.parametrize("case", sorted(PLAN_CASES))
    def test_plan_engine(self, case, monkeypatch, no_oracle):
        config, attach, fastforward, expected = PLAN_CASES[case]
        monkeypatch.setenv("REPRO_FASTFORWARD", fastforward)
        simulator = self._simulator(config)
        if attach is not None:
            attach(simulator)
        assert fastforward_reason(simulator) == expected
        simulator, stats = self._run_harness(attach, config)
        assert stats.blocks == RECORDS - WARMUP
        if expected is not None:
            assert simulator.fastforward_summary == {
                "engaged": False, "reason": expected}

    def _run_harness(self, attach=None, config=FrontEndConfig()):
        """One voter cell through ``run_group``; ``(simulator, stats)``."""
        runner = ExperimentRunner(scale=self.SCALE, store=None)
        simulators = []

        def setup(sim):
            if attach is not None:
                attach(sim)
            simulators.append(sim)

        (stats,) = runner.run_group([Cell("voter", config, 0, False)],
                                    setup=setup)
        return simulators[0], stats

    def test_attribution_runs_on_kernel(self, no_oracle):
        simulator, stats = self._run_harness(
            lambda sim: sim.attach_attribution())
        assert simulator.attribution.events_counted > 0
        assert stats.blocks == RECORDS - WARMUP

    def test_event_trace_runs_on_kernel(self, no_oracle):
        trace = EventTrace()
        self._run_harness(lambda sim: sim.attach_trace(trace))
        assert len(trace) > 0

    def test_plain_simulator_is_supported(self):
        simulator = self._simulator()
        compiled = compile_trace(build_trace("voter", RECORDS, seed=0))
        assert fastforward_reason(simulator) is None
        stats = run_compiled_batched(simulator, compiled, warmup=WARMUP)
        expected, _ = _oracle_run(simulator.program, build_trace(
            "voter", RECORDS, seed=0), simulator.config)
        assert dataclasses.asdict(stats) == expected


class TestHarnessPaths:
    """Serial and parallel harness cells match per-cell ``run_compiled``."""

    SCALE = Scale("batchequiv", records=RECORDS, warmup=WARMUP)
    CELLS = [Cell(workload, config, seed, False)
             for workload in WORKLOAD_NAMES[:2]
             for config in CONFIGS.values()
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

    def test_attribution_cells_run_on_kernel(self, monkeypatch):
        """record_attribution cells run on the kernel and store the
        artifact the run_compiled oracle renders."""
        config = FrontEndConfig(skia=SkiaConfig())
        oracle = FrontEndSimulator.run_compiled
        oracle_runs = []
        monkeypatch.setattr(
            FrontEndSimulator, "run_compiled",
            lambda *args, **kwargs: oracle_runs.append(1) or oracle(
                *args, **kwargs))
        runner = ExperimentRunner(scale=self.SCALE, store=None,
                                  record_attribution=True)
        stats, _ = runner.run_with_attribution("voter", config)
        assert stats.blocks > 0
        assert oracle_runs == []
        simulator = FrontEndSimulator(build_program("voter", seed=0), config,
                                      seed=0)
        aggregator = simulator.attach_attribution()
        oracle(simulator, compile_trace(build_trace("voter", RECORDS,
                                                    seed=0)), warmup=WARMUP)
        assert runner.attribution_for("voter", config) == \
            aggregator.to_jsonable()
