"""Bit-identity of the batched lane kernel against ``run_compiled``.

The batched kernel (:mod:`repro.frontend.batch`) re-implements the
replay loop with inlined structures and chunk-local counters;
``FrontEndSimulator.run_compiled`` (which ``run`` calls on lowered
records) stays the oracle.  These tests pin the contract: for every
cell of the Figure-14 grid, the kernel's ``SimStats`` *and* metric
snapshot (structure counters, cache gauges, SBB/RAS/predictor state)
are bit-identical to the oracle -- across seeds, through lane sharing,
and through the harness plumbing that runs every cell on the kernel --
and one gate decides whether a run may fast-forward.
"""

import dataclasses

import pytest

import repro.frontend.batch as batch_mod
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
from repro.isa.branch import BranchKind
from repro.obs import EventTrace
from repro.obs.intervals import IntervalCollector
from repro.workloads import (
    WORKLOAD_NAMES,
    CompiledTrace,
    TraceGenerator,
    build_program,
    build_trace,
    get_profile,
)
from tests.frontend.oracle import oracle_cells, refuse_oracle
from tests.workloads.records import BlockRecord, as_records, from_records

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


def _oracle_run(program, compiled, config, seed=0, warmup=WARMUP):
    simulator = FrontEndSimulator(program, config, seed=seed)
    stats = simulator.run_compiled(compiled, warmup=warmup)
    return dataclasses.asdict(stats), simulator.metrics_snapshot()


def _batched_run(program, compiled, config, seed=0, warmup=WARMUP):
    simulator = FrontEndSimulator(program, config, seed=seed)
    stats = run_compiled_batched(simulator, compiled, warmup=warmup)
    return dataclasses.asdict(stats), simulator.metrics_snapshot()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_fig14_grid_bit_identity(workload):
    """Every (workload, config) cell: oracle == batched kernel."""
    program = build_program(workload, seed=0)
    compiled = build_trace(workload, RECORDS, seed=0)
    for name, config in CONFIGS.items():
        obj_stats, obj_metrics = _oracle_run(program, compiled, config)
        bat_stats, bat_metrics = _batched_run(program, compiled, config)
        assert bat_stats == obj_stats, (workload, name)
        assert bat_metrics == obj_metrics, (workload, name)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seed_sweep_bit_identity(seed):
    """Seeds beyond the grid default stay bit-identical too."""
    for workload in ("voter", "kafka"):
        program = build_program(workload, seed=seed)
        compiled = build_trace(workload, RECORDS, seed=seed)
        for name, config in CONFIGS.items():
            assert (_batched_run(program, compiled, config, seed=seed)
                    == _oracle_run(program, compiled, config, seed=seed)), \
                (workload, name, seed)


def test_lane_sharing_matches_independent_runs():
    """N lanes over one shared table == N independent kernel runs."""
    program = build_program("voter", seed=0)
    compiled = build_trace("voter", RECORDS, seed=0)
    batch = BatchedFrontEndSimulator(chunk_records=257)  # force many chunks
    simulators = [FrontEndSimulator(program, config, seed=0)
                  for config in CONFIGS.values()]
    for simulator in simulators:
        batch.add_lane(simulator, compiled, warmup=WARMUP)
    shared = batch.run()
    for simulator, stats, (name, config) in zip(simulators, shared,
                                                CONFIGS.items()):
        expect_stats, expect_metrics = _oracle_run(program, compiled,
                                                   config)
        assert dataclasses.asdict(stats) == expect_stats, name
        assert simulator.metrics_snapshot() == expect_metrics, name


def _recurring_block_records(base: int) -> list[BlockRecord]:
    """A hand-built trace whose blocks recur with different outcomes: a
    return and an indirect jump, each to several targets, and a
    conditional both taken and not."""
    def block(offset, n_instr, branch_offset, branch_len, kind):
        start = base + offset
        return dict(block_start=start, n_instr=n_instr,
                    branch_pc=start + branch_offset, branch_len=branch_len,
                    kind=kind, fallthrough=start + branch_offset + branch_len)

    blocks = (block(0x40, 3, 0x08, 1, BranchKind.RETURN),
              block(0x90, 5, 0x2c, 2, BranchKind.INDIRECT_UNCOND),
              block(0x105, 2, 0x06, 2, BranchKind.DIRECT_COND))
    targets = [base + offset for offset in (0x10, 0x90, 0x200, 0x3f7)]
    records = []
    for index in range(600):
        fields = blocks[index % 3]
        if fields["kind"] is BranchKind.DIRECT_COND:
            taken, target = index % 7 < 4, base + 0x40
        else:
            taken, target = True, targets[index * 5 // 3 % len(targets)]
        records.append(BlockRecord(
            taken=taken, target=target,
            next_pc=target if taken else fields["fallthrough"], **fields))
    return records


class TestEdgeCases:
    CONFIG = FrontEndConfig(skia=SkiaConfig())

    def _both_paths(self, records, warmup):
        program = build_program("voter", seed=0)
        compiled = from_records(records)
        assert as_records(compiled) == records
        return (_oracle_run(program, compiled, self.CONFIG, warmup=warmup),
                _batched_run(program, compiled, self.CONFIG, warmup=warmup))

    def test_recurring_blocks_with_varying_outcomes(self):
        """``from_records`` keeps one row per block; each record keeps
        its own taken bit and target."""
        records = _recurring_block_records(
            build_program("voter", seed=0).base_address)
        assert from_records(records).n_blocks == 3
        obj, bat = self._both_paths(records, warmup=100)
        assert bat == obj

    def test_empty_trace(self):
        obj, bat = self._both_paths([], warmup=0)
        assert bat == obj

    def test_single_record_trace(self):
        records = as_records(build_trace("voter", 1, seed=0))
        obj, bat = self._both_paths(records, warmup=0)
        assert bat == obj

    def test_warmup_exceeds_trace_length(self):
        records = as_records(build_trace("voter", 50, seed=0))
        obj, bat = self._both_paths(records, warmup=500)
        assert bat == obj

    def test_warmup_equals_trace_length(self):
        records = as_records(build_trace("voter", 50, seed=0))
        obj, bat = self._both_paths(records, warmup=50)
        assert bat == obj

    def test_warmup_boundary_mid_chunk(self):
        """The advance() warmup split, exercised inside one chunk."""
        program = build_program("voter", seed=0)
        compiled = build_trace("voter", 300, seed=0)
        simulator = FrontEndSimulator(program, self.CONFIG, seed=0)
        batch = BatchedFrontEndSimulator(chunk_records=128)
        batch.add_lane(simulator, compiled, warmup=200)
        stats = batch.run()[0]
        expect_stats, expect_metrics = _oracle_run(
            program, compiled, self.CONFIG, warmup=200)
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
    """Every chunk size matches the oracle, so each round's record
    slices are right wherever warm-up and window boundaries fall."""
    for chunk_records in PARTIAL_CHUNKS:
        for name, config in CONFIGS.items():
            got = _run_with_intervals(program, compiled, config,
                                      chunk_records)
            assert got == expected[name], (name, chunk_records)


def test_numpy_partial_chunks():
    """The kernel over partial chunks matches the oracle."""
    program = build_program("voter", seed=0)
    compiled = build_trace("voter", RECORDS, seed=0)
    expected = {
        name: _run_with_intervals(program, compiled, config)
        for name, config in CONFIGS.items()
    }
    _assert_partial_chunks(program, compiled, expected)


class TestSingleShot:
    """A batch runs once; replaying it would corrupt finished lanes."""

    def _ran_batch(self):
        program = build_program("voter", seed=0)
        compiled = build_trace("voter", 3_000, seed=0)
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


class TestBlockRowSharing:
    """Block rows are built once per (trace, geometry) per batch, over
    the trace's executed blocks only, and shared by the geometry's
    lanes."""

    def test_rows_once_per_trace_and_geometry(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTFORWARD", "1")
        program = build_program("steady-stream", seed=0)
        generator = TraceGenerator(
            program, seed=0,
            dispatch_run_range=get_profile("steady-stream").dispatch_run_range)
        stream, taken = generator.stream(24_000)
        compiled = CompiledTrace.from_stream(generator.columns, stream, taken)
        executed = len(set(stream[:-1]))
        assert executed < len(generator.columns.blocks)

        built = []  # (trace, geometry, rows)
        fuse = batch_mod._block_rows

        def spy_fuse(trace, geometry):
            rows = fuse(trace, geometry)
            built.append((trace, geometry, rows))
            return rows

        monkeypatch.setattr(batch_mod, "_block_rows", spy_fuse)
        configs = list(CONFIGS.values()) + [
            FrontEndConfig().with_btb_entries(2048)]
        simulators = [FrontEndSimulator(program, config, seed=0)
                      for config in configs]
        batch = BatchedFrontEndSimulator(chunk_records=1_024)
        for simulator in simulators:
            batch.add_lane(simulator, compiled, warmup=500)
        batch.run()

        for simulator in simulators:
            assert simulator.fastforward_summary["skipped_records"] > 0
        rows_by_geometry = {geometry: rows for _, geometry, rows in built}
        assert len(built) == len(rows_by_geometry) == 2
        for trace, _, rows in built:
            assert trace is compiled
            assert len(rows) == compiled.n_blocks == executed
        for lane in batch._lanes:
            assert lane.block_rows is rows_by_geometry[
                batch_mod._geometry(lane.sim)]


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
        compiled = build_trace("voter", RECORDS, seed=0)
        assert fastforward_reason(simulator) is None
        stats = run_compiled_batched(simulator, compiled, warmup=WARMUP)
        expected, _ = _oracle_run(simulator.program, compiled,
                                  simulator.config)
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
        stats = runner.run("voter", config)
        assert stats.blocks > 0
        assert oracle_runs == []
        simulator = FrontEndSimulator(build_program("voter", seed=0), config,
                                      seed=0)
        aggregator = simulator.attach_attribution()
        oracle(simulator, build_trace("voter", RECORDS, seed=0),
               warmup=WARMUP)
        assert runner.attribution_for("voter", config) == \
            aggregator.to_jsonable()
