"""Object records lowered afresh agree with the harness's compiled traces.

``from_records`` (the tests' record lowering) builds its block table in
first-execution order, with no line columns derived yet.  The harness
instead replays the workload cache's compiled traces on the lane
kernel -- and each pool worker compiles the traces of its own groups.
These tests pin that ``run_compiled`` over lowered records, over the
cache's trace and the kernel yield the same ``SimStats``, metric
snapshot, event stream, timeline and attribution artifact over the
Figure-14 grid, and that the serial and parallel harness paths match
``run_compiled`` over lowered records.
"""

import dataclasses

import pytest

from repro.frontend.batch import run_compiled_batched
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.harness.parallel import Cell, ParallelRunner
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import Scale
from repro.obs import EventTrace, TimelineRecorder
from repro.workloads import WORKLOAD_NAMES, build_program, build_trace
from tests.frontend.oracle import oracle_cells
from tests.workloads.records import as_records, from_records

RECORDS = 1_000
WARMUP = 150

#: The four Figure-14 configurations.
CONFIGS = {
    "base": FrontEndConfig(),
    "head": FrontEndConfig(skia=SkiaConfig(decode_tails=False)),
    "tail": FrontEndConfig(skia=SkiaConfig(decode_heads=False)),
    "both": FrontEndConfig(skia=SkiaConfig()),
}


def _observed_run(program, config, replay):
    """Everything one run exposes, with every instrumentation hook on."""
    simulator = FrontEndSimulator(program, config, seed=0)
    trace = EventTrace(capacity=1_000_000)
    timeline = TimelineRecorder(capacity=1_000_000)
    simulator.attach_trace(trace)
    simulator.attach_timeline(timeline)
    aggregator = simulator.attach_attribution()
    stats = replay(simulator)
    return (dataclasses.asdict(stats), simulator.metrics_snapshot(),
            trace.events(), list(timeline), aggregator.to_jsonable())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_fig14_grid_bit_identity(workload):
    """Every (workload, config) cell: lowered records == the cache's
    trace == the lane kernel, with every observer attached."""
    program = build_program(workload, seed=0)
    compiled = build_trace(workload, RECORDS, seed=0)
    lowered = from_records(as_records(compiled))
    for name, config in CONFIGS.items():
        via_records = _observed_run(
            program, config,
            lambda sim: sim.run_compiled(lowered, warmup=WARMUP))
        via_compiled = _observed_run(
            program, config,
            lambda sim: sim.run_compiled(compiled, warmup=WARMUP))
        via_kernel = _observed_run(
            program, config,
            lambda sim: run_compiled_batched(sim, compiled, warmup=WARMUP))
        assert via_records[2], (workload, name)  # events were emitted
        assert via_records == via_compiled, (workload, name)
        assert via_kernel == via_compiled, (workload, name)


class TestHarnessPaths:
    """``run_compiled`` over the workload cache's traces, and the
    harness cells, match ``run_compiled`` over lowered records."""

    SCALE = Scale("compiledequiv", records=RECORDS, warmup=WARMUP)
    CELLS = [Cell(workload, config, 0, False)
             for workload in WORKLOAD_NAMES[:3]
             for config in CONFIGS.values()]

    def _assert_match_direct_runs(self, results):
        for got, cell in zip(results, self.CELLS, strict=True):
            simulator = FrontEndSimulator(
                build_program(cell.workload, seed=0), cell.config, seed=0)
            expect = simulator.run_compiled(from_records(as_records(
                build_trace(cell.workload, RECORDS, seed=0))), warmup=WARMUP)
            assert dataclasses.asdict(got) == dataclasses.asdict(expect), \
                cell

    def test_serial_compiled_matches_object_path(self):
        # run_compiled per cell over the workload cache's compiled trace,
        # then the serial harness (on the kernel) over the same traces.
        self._assert_match_direct_runs(oracle_cells(self.SCALE, self.CELLS))
        runner = ExperimentRunner(scale=self.SCALE, store=None)
        self._assert_match_direct_runs(runner.run_cells(self.CELLS, jobs=1))

    def test_parallel_zero_copy_matches_object_path(self):
        # Each pool worker compiles its own group's trace.
        runner = ParallelRunner(scale=self.SCALE, jobs=2, store=None)
        self._assert_match_direct_runs(runner.run_batch(self.CELLS))
