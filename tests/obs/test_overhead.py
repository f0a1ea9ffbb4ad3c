"""Instrumentation overhead guard.

Prevents accidental always-on instrumentation: a default-config run must
attach no trace, timeline or attribution, keep no outcome rows on
either engine and record no profiler spans (the structural guard),
and fully-enabled instrumentation must stay within a small factor of the
untraced run (the cost guard).  If timeline/trace emission ever stops
being gated behind the ``None`` checks, the structural assertions fail
immediately; if the gated path grows expensive, the ratio does.
"""

import time

from repro.frontend.batch import BatchedFrontEndSimulator
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.obs import EventTrace, TimelineRecorder
from repro.workloads.compiled import CompiledTrace
from repro.obs.profiler import _NULL, PROFILER

#: Enabled instrumentation may cost at most this factor over untraced.
MAX_OVERHEAD_FACTOR = 4.0


def _config() -> FrontEndConfig:
    return FrontEndConfig(skia=SkiaConfig()).with_btb_entries(256)


def _timed_run(micro_program, micro_trace, instrumented: bool) -> float:
    simulator = FrontEndSimulator(micro_program, _config())
    if instrumented:
        simulator.attach_trace(EventTrace(capacity=1_000_000))
        simulator.attach_timeline(TimelineRecorder(capacity=1_000_000))
    start = time.perf_counter()
    simulator.run(micro_trace, warmup=2_000)
    return time.perf_counter() - start


class TestStructuralGuard:
    """Disabled means *nothing attached*, not just nothing emitted."""

    def test_default_run_attaches_no_instrumentation(self, micro_program,
                                                     micro_trace):
        simulator = FrontEndSimulator(micro_program, _config())
        simulator.run(micro_trace[:2_000], warmup=500)
        assert simulator.trace is None
        assert simulator.timeline is None
        assert simulator.intervals is None
        assert simulator.attribution is None

    def test_default_runs_keep_no_outcome_rows(self, micro_program,
                                               micro_trace, monkeypatch):
        # Rows exist only for an attached observer: a default
        # run_compiled allocates none and renders nothing, and a default
        # kernel lane binds no row list, so its per-record row branch is
        # a single failed None test.
        rendered = []
        monkeypatch.setattr(FrontEndSimulator, "_render_outcomes",
                            lambda *args: rendered.append(args))
        oracle = FrontEndSimulator(micro_program, _config())
        assert oracle._outcome_rows() == (None, None)
        oracle.run(micro_trace[:2_000], warmup=500)
        kernel = FrontEndSimulator(micro_program, _config())
        batch = BatchedFrontEndSimulator(chunk_records=512)
        batch.add_lane(kernel, CompiledTrace.from_records(micro_trace[:2_000]),
                       warmup=500)
        [lane] = batch._lanes
        assert lane.rows is None and lane.times is None
        batch.run()
        assert rendered == []

    def test_default_run_records_no_profiler_sections(self, micro_program,
                                                      micro_trace):
        # The module-level profiler is threaded through the SBD memo
        # misses; outside a run ledger or bench it must record nothing,
        # and every section is the one shared no-op.
        assert PROFILER.enabled is False
        assert PROFILER.section("sbd.head_decode") is _NULL
        before = list(PROFILER.spans)
        simulator = FrontEndSimulator(micro_program, _config())
        simulator.run(micro_trace[:2_000], warmup=500)
        assert PROFILER.spans == before

    def test_record_timeline_flag_defaults_off(self):
        assert FrontEndConfig().record_timeline is False

    def test_interval_size_defaults_off(self):
        assert FrontEndConfig().interval_size == 0

    def test_default_run_has_no_ledger_telemetry(self):
        # Telemetry-off is structural: no active ledger and no span
        # file.  The harness consults active_ledger() once per *cell*,
        # so nothing rides the per-record hot path.
        from repro.obs.ledger import active_ledger

        assert active_ledger() is None
        assert PROFILER.path is None


class TestCostGuard:
    #: A fully-ledgered harness run may cost at most this factor over an
    #: unledgered one -- the lifecycle records and spans are per-cell
    #: and per-section, never per-record, so the headroom is generous.
    MAX_LEDGER_FACTOR = 1.5

    def test_ledgered_run_within_small_factor(self, monkeypatch, tmp_path):
        import time as time_mod

        from repro.harness.parallel import Cell
        from repro.harness.runner import ExperimentRunner
        from repro.harness.scale import Scale
        from repro.obs.ledger import start_run
        from repro.workloads.cache import WorkloadCache

        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_NO_PROGRESS", "1")
        tiny = Scale("test", records=6_000, warmup=2_000)
        cells = [Cell("noop", _config())]

        def timed(ledgered: bool) -> float:
            runner = ExperimentRunner(scale=tiny, cache=WorkloadCache(),
                                      store=None)
            start = time_mod.perf_counter()
            if ledgered:
                with start_run("overhead", root=tmp_path / "runs"):
                    runner.run_cells(cells, jobs=1)
            else:
                runner.run_cells(cells, jobs=1)
            return time_mod.perf_counter() - start

        plain = min(timed(False) for _ in range(3))
        ledgered = min(timed(True) for _ in range(3))
        assert ledgered <= plain * self.MAX_LEDGER_FACTOR + 0.05, (
            f"ledgered run {ledgered:.3f}s vs plain {plain:.3f}s exceeds "
            f"{self.MAX_LEDGER_FACTOR}x")

    def test_instrumented_run_within_small_factor(self, micro_program,
                                                  micro_trace):
        # min-of-3 filters scheduler noise; the generous factor keeps
        # this green on loaded CI machines while still catching an
        # instrumentation path that stops being O(1)-per-event.
        untraced = min(_timed_run(micro_program, micro_trace, False)
                       for _ in range(3))
        instrumented = min(_timed_run(micro_program, micro_trace, True)
                           for _ in range(3))
        assert instrumented <= untraced * MAX_OVERHEAD_FACTOR + 0.05, (
            f"instrumented run {instrumented:.3f}s vs untraced "
            f"{untraced:.3f}s exceeds {MAX_OVERHEAD_FACTOR}x")

    #: Interval telemetry works per *window*, not per record -- when
    #: off it is a single None-check per record, so the ceiling is much
    #: tighter than the per-event instrumentation factor above.
    MAX_INTERVAL_FACTOR = 1.05

    def test_interval_run_within_tiny_factor(self, micro_program,
                                             micro_trace):
        import dataclasses
        import time as time_mod

        def timed(interval_size: int) -> float:
            config = dataclasses.replace(_config(),
                                         interval_size=interval_size)
            simulator = FrontEndSimulator(micro_program, config)
            start = time_mod.perf_counter()
            simulator.run(micro_trace, warmup=2_000)
            return time_mod.perf_counter() - start

        plain = min(timed(0) for _ in range(3))
        windowed = min(timed(500) for _ in range(3))
        assert windowed <= plain * self.MAX_INTERVAL_FACTOR + 0.05, (
            f"interval run {windowed:.3f}s vs plain {plain:.3f}s exceeds "
            f"{self.MAX_INTERVAL_FACTOR}x")
