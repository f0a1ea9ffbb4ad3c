"""The front-end timing simulator.

Replays a correct-path trace through the decoupled front-end, maintaining
per-stage clocks:

* **IAG** emits one FTQ entry (basic block) per cycle, backpressured by
  FTQ occupancy; each entry immediately issues prefetches for its lines.
* **Fetch** consumes FTQ entries in order, one cycle per line, stalling
  until the lines' fills complete -- so FDIP runahead (IAG cycles ahead of
  fetch) genuinely hides miss latency.
* **Decode** consumes fetched blocks at ``decode_width``; the gap between
  a block arriving and the previous block finishing is the decoder idle
  time of Figure 18.
* **Retire** drains at an effective back-end width, giving an IPC ceiling
  (the workloads are front-end bound, matching the paper).

Mispredictions restart the IAG after a repair delay whose anchor depends
on where the wrong path is detected (decode vs execute, Figure 7), flush
the FTQ, and stream wrong-path prefetches into the L1-I (pollution).

Skia hooks in at two points: the SBB is probed by the BPU in parallel
with the BTB, and the SBD runs when an FTQ entry's prefetch completes.

The model is written twice: :meth:`FrontEndSimulator.run_compiled` is
the readable per-record oracle, and the lane kernel in
:mod:`repro.frontend.batch` is the same model written to be fast and
bit-identical to it.  The harness runs every cell on the kernel;
:meth:`FrontEndSimulator.run` lowers object records and calls the
oracle, which stays the reference the kernel is tested against.
Neither engine calls an observer while it runs: with attribution, an
event trace or a timeline recorder attached, both append one outcome
row per record (plus one stage-time row for a timeline) and render the
rows into the observers after the run (``_render_outcomes``).
"""

from __future__ import annotations

import weakref
from collections import deque

from repro.core.skia import Skia
from repro.frontend.bpu import BranchPredictionUnit
from repro.frontend.caches import CacheHierarchy
from repro.frontend.config import FrontEndConfig
from repro.frontend.fastforward import ProbeState, plan_compiled
from repro.frontend.stats import SimStats
from repro.obs import (
    EventTrace,
    IntervalCollector,
    MetricsRegistry,
    TimelineRecorder,
    snapshot_from_stats,
)
from repro.obs.trace import outcome_events
from repro.workloads.compiled import KIND_BY_CODE, CompiledTrace
from repro.workloads.program import Program
from repro.workloads.trace import BlockRecord


class FrontEndSimulator:
    """One simulation instance: structures + timeline state."""

    def __init__(self, program: Program, config: FrontEndConfig,
                 seed: int = 0):
        self.program = program
        self.config = config
        self.hierarchy = CacheHierarchy(config)
        self.skia: Skia | None = None
        if config.skia.enabled:
            self.skia = Skia(
                image=program.image, base_address=program.base_address,
                config=config.skia, line_size=config.line_size,
                boundary_oracle=program.is_instruction_start)
        comparator = self._build_comparator(program, config)
        self.bpu = BranchPredictionUnit(config, skia=self.skia, seed=seed,
                                        comparator=comparator)
        self.stats = SimStats()
        self.metrics = MetricsRegistry()
        self.trace: EventTrace | None = None
        self.timeline: TimelineRecorder | None = None
        self.attribution = None
        self.intervals: IntervalCollector | None = None
        #: Outcome of the last run's fast-forward planning (see
        #: repro.frontend.fastforward); read by the harness for ledgers.
        self.fastforward_summary: dict | None = None
        self._records_seen = 0
        self._register_metrics()
        if config.record_timeline:
            self.attach_timeline(TimelineRecorder())
        if config.interval_size > 0:
            self.intervals = IntervalCollector(config.interval_size)

    def _register_metrics(self) -> None:
        """Give every hardware structure a scope in the registry."""
        self.bpu.btb.register_metrics(self.metrics.scope("btb"))
        self.bpu.ras.register_metrics(self.metrics.scope("ras"))
        if self.skia is not None:
            self.skia.register_metrics(self.metrics)
        if self.bpu.comparator is not None:
            self.bpu.comparator.register_metrics(
                self.metrics.scope("comparator"))
        engine_scope = self.metrics.scope("engine")
        # Weak: a gauge holding the simulator would close a simulator ->
        # registry -> gauge loop, and every finished cell would wait for
        # a full cyclic collection instead of being freed on release.
        simulator = weakref.ref(self)
        engine_scope.gauge("records", lambda: simulator()._records_seen)
        self._resteer_latency = engine_scope.histogram("resteer_latency")

    def attach_trace(self, trace: EventTrace) -> None:
        """Enable structured event tracing for subsequent ``run`` calls."""
        self.trace = trace
        # Surface the ring's accounting in metric snapshots: before this,
        # truncation was only visible in JSONL dump headers.  Gauges are
        # sampled at snapshot time only, so tracing cost is unchanged.
        trace_scope = self.metrics.scope("trace")
        trace_scope.gauge("emitted", lambda: trace.emitted)
        trace_scope.gauge("retained", lambda: len(trace))
        trace_scope.gauge("dropped_events", lambda: trace.dropped)

    def attach_timeline(self, timeline: TimelineRecorder) -> None:
        """Enable pipeline timeline recording for subsequent ``run`` calls."""
        self.timeline = timeline

    def attach_attribution(self, aggregator=None):
        """Enable per-branch/per-line attribution for subsequent runs.

        Attaches an :class:`repro.obs.attribution.AttributionAggregator`,
        which folds every outcome row of each run (no event ring is
        involved, so it drops nothing).  Each run hands the aggregator
        its warm-up boundary, making the rollup sums exactly the
        post-warm-up ``SimStats`` counters (the
        ``attribution_*_conservation`` invariants).  Returns the
        aggregator.
        """
        if aggregator is None:
            from repro.obs.attribution import AttributionAggregator
            aggregator = AttributionAggregator.for_simulation(
                self.program, self.config)
        self.attribution = aggregator
        return aggregator

    def attach_intervals(self, collector: IntervalCollector
                         ) -> IntervalCollector:
        """Replace/enable the interval collector for subsequent runs.

        Normally the collector comes from ``config.interval_size``; the
        divergence bisector attaches its own (same window, plus a
        ``state_probe``) to sample structure-state digests at the
        window boundaries.
        """
        self.intervals = collector
        return collector

    def _outcome_rows(self) -> tuple[list | None, list | None]:
        """Fresh ``(outcome rows, stage-time rows)`` lists for the next
        run: outcome rows when any observer is attached, stage times
        only for a timeline recorder; ``None`` for each one unneeded."""
        if self.timeline is not None:
            return [], []
        if self.attribution is None and self.trace is None:
            return None, None
        return [], None

    def _render_outcomes(self, compiled, rows: list, times: list | None,
                         warmup: int) -> None:
        """Render one finished run's outcome rows (layout in
        :func:`repro.obs.trace.outcome_events`) into the attribution
        aggregator and the event trace, and its stage-time rows into
        the timeline recorder."""
        flags = (self.bpu.comparator is not None, self.skia is not None)
        if self.attribution is not None:
            # The aggregator applies the same warm-up gate as SimStats.
            self.attribution.warmup = warmup
            self.attribution.observe_outcomes(
                outcome_events(compiled, rows, *flags))
        if self.trace is not None:
            self.trace.render(outcome_events(compiled, rows, *flags))
        if self.timeline is not None:
            self.timeline.render(compiled, rows, times,
                                 self.config.line_size)

    def metrics_snapshot(self) -> dict[str, float]:
        """One flat dict: structure gauges + post-warm-up ``sim.*``
        counters + ``config.*`` gates for the invariant checks."""
        snapshot = self.metrics.snapshot()
        snapshot.update(snapshot_from_stats(
            self.stats, skia_enabled=self.skia is not None,
            comparator=self.config.comparator))
        if self.intervals is not None:
            snapshot.update(self.intervals.snapshot())
        return snapshot

    def structures(self) -> dict:
        """Every stateful structure, by name.

        Each one exposes ``state(base)`` -- its behavioural contents,
        timestamps relative to ``base`` and past ones collapsed to
        ``None`` -- and ``COUNTERS``, the plain counters a fast-forward
        skip scales.  Fast-forward probes and skips and the divergence
        bisector all read structure state through this list.  The
        optional comparator is not listed; fast-forward declines
        comparator runs.
        """
        bpu, hierarchy = self.bpu, self.hierarchy
        found = {"btb": bpu.btb, "tage": bpu.tage, "loop": bpu.loop,
                 "ittage": bpu.ittage, "ras": bpu.ras,
                 "hierarchy": hierarchy, "l1i": hierarchy.l1i,
                 "l2": hierarchy.l2, "l3": hierarchy.l3}
        if self.skia is not None:
            found["usbb"] = self.skia.sbb.usbb
            found["rsbb"] = self.skia.sbb.rsbb
            for name, memo in self.skia.sbd.memos().items():
                found[f"sbd_{name}"] = memo
        return {name: s for name, s in found.items() if s is not None}

    @staticmethod
    def _build_comparator(program: Program, config: FrontEndConfig):
        """Instantiate the optional Section 7.1 baseline mechanism."""
        if config.comparator is None:
            return None
        from repro.frontend.comparators import build_comparator
        return build_comparator(config.comparator, program, config)

    # ------------------------------------------------------------------

    def run(self, records: list[BlockRecord], warmup: int = 0) -> SimStats:
        """Replay object ``records`` through :meth:`run_compiled`.

        The records are lowered to a :class:`CompiledTrace` first; its
        line columns are derived for this config on first use, and the
        lane kernel's decode table is never built.
        """
        return self.run_compiled(
            CompiledTrace.from_records(records, line_sizes=()),
            warmup=warmup)

    # ------------------------------------------------------------------

    def run_compiled(self, compiled, warmup: int = 0) -> SimStats:
        """Replay a :class:`CompiledTrace`; the first ``warmup`` records
        train structures without being counted.

        The readable oracle of the timing model: it iterates the compiled
        columns with locals-bound indices, uses the precomputed
        per-record line spans and calls the BPU's field-based entry
        point, so no ``BlockRecord`` is ever constructed.  The lane
        kernel of :mod:`repro.frontend.batch` replicates it bit-for-bit,
        outcome and stage-time rows included
        (``tests/frontend/test_batch_equivalence.py``).
        """
        config = self.config
        hierarchy = self.hierarchy
        hierarchy_access = hierarchy.access
        line_present = hierarchy.line_present
        bpu_process = self.bpu.process_fields
        skia = self.skia
        stats = self.stats
        line_size = config.line_size
        line_mask = ~(line_size - 1)

        ftq_size = config.ftq_size
        decode_width = config.decode_width
        iag_to_fetch = config.iag_to_fetch_delay
        fetch_to_decode = config.fetch_to_decode_delay
        repair = config.decode_repair_cycles
        btb_extra_latency = config.btb_access_latency() - 1
        exec_resolve = config.exec_resolve_delay
        backend_width = config.backend_effective_width
        pollution_max = config.pollution_max_lines

        rows, times = self._outcome_rows()
        resteer_latency = self._resteer_latency
        records_seen = self._records_seen

        # Locals-bound columns: one flat sequence per record field.
        n_records = compiled.n_records
        col_block_start = compiled.column("block_start")
        col_n_instr = compiled.column("n_instr")
        col_branch_pc = compiled.column("branch_pc")
        col_branch_len = compiled.column("branch_len")
        col_kind = compiled.column("kind")
        col_taken = compiled.column("taken")
        col_target = compiled.column("target")
        col_fallthrough = compiled.column("fallthrough")
        col_first_line, col_n_lines = compiled.derived(line_size)
        kind_by_code = KIND_BY_CODE

        intervals = self.intervals
        interval_size = 0
        next_boundary = 0
        if intervals is not None:
            intervals.warmup = warmup
            interval_size = intervals.interval_size
            next_boundary = interval_size

        iag_free = 0.0
        fetch_free = 0.0
        decode_free = 0.0
        retire_free = 0.0
        ftq_inflight: deque[float] = deque()  # fetch_done per in-flight entry

        prev_taken = True  # the first block is "entered" at the entry point
        counting = False
        counted_instructions = 0
        counted_blocks = 0
        cycles_at_count_start = 0.0
        wrong_path_fills_at_count_start = 0

        ff = plan_compiled(self, compiled, warmup)

        ff_segment = 0
        while ff_segment < n_records:
            ff_stop = ff.next_probe if ff is not None and ff.active \
                and ff.next_probe < n_records else n_records
            for index in range(ff_segment, ff_stop):
                if not counting and index >= warmup:
                    counting = True
                    cycles_at_count_start = retire_free
                    wrong_path_fills_at_count_start = hierarchy.wrong_path_fills
                stats_arg = stats if counting else None

                block_start = col_block_start[index]
                n_instr = col_n_instr[index]
                branch_pc = col_branch_pc[index]
                kind = kind_by_code[col_kind[index]]
                taken = col_taken[index] != 0
                target = col_target[index]
                fallthrough = col_fallthrough[index]

                # ----- IAG: allocate the FTQ entry ------------------------
                iag_t = iag_free
                while ftq_inflight and ftq_inflight[0] <= iag_t:
                    ftq_inflight.popleft()
                if len(ftq_inflight) >= ftq_size:
                    iag_t = ftq_inflight.popleft()

                records_seen += 1

                branch_line_present = line_present(branch_pc)
                prediction = bpu_process(block_start, branch_pc, kind, taken,
                                         target, fallthrough,
                                         branch_line_present, stats_arg)

                # ----- Prefetch the entry's lines (precompiled spans) ------
                first_line = col_first_line[index]
                n_lines = col_n_lines[index]
                lines_ready = iag_t
                line = first_line
                for _ in range(n_lines):
                    hit, ready, level = hierarchy_access(line, iag_t)
                    if ready > lines_ready:
                        lines_ready = ready
                    if counting:
                        stats.l1i_accesses += 1
                        if not hit:
                            stats.l1i_misses += 1
                            if level >= 3:
                                stats.l2_misses += 1
                            if level >= 4:
                                stats.l3_misses += 1
                    line += line_size

                # ----- Skia: shadow-decode this entry's lines --------------
                head = tail = None
                if skia is not None:
                    exit_pc = branch_pc + col_branch_len[index] if taken else None
                    head, tail = skia.on_ftq_entry(
                        entry_pc=block_start,
                        entered_by_taken_branch=prev_taken,
                        exit_pc=exit_pc,
                        line_present=line_present,
                        stats=stats_arg)

                # ----- Fetch ------------------------------------------------
                fetch_start = max(fetch_free, iag_t + iag_to_fetch)
                fetch_stall = 0.0
                if lines_ready > fetch_start:
                    fetch_stall = lines_ready - fetch_start
                    if counting:
                        stats.fetch_stall_cycles += fetch_stall
                    fetch_start = lines_ready
                fetch_done = fetch_start + n_lines
                fetch_free = fetch_done
                ftq_inflight.append(fetch_done)

                # ----- Decode ----------------------------------------------
                input_ready = fetch_done + fetch_to_decode
                decode_start = max(decode_free, input_ready)
                decode_idle = decode_start - decode_free
                if counting:
                    stats.decoder_idle_cycles += decode_idle
                decode_done = decode_start + (
                    (n_instr + decode_width - 1) // decode_width)
                decode_free = decode_done

                # ----- Retire ----------------------------------------------
                retire_start = max(retire_free, decode_done + 1)
                retire_free = retire_start + n_instr / backend_width

                # ----- Resteer / next-entry scheduling ---------------------
                if prediction.resteer is None:
                    iag_free = iag_t + 1
                else:
                    # Every resteering prediction carries exactly one cause,
                    # so the per-cause counts partition decode+exec resteers.
                    cause = prediction.resteer_cause or "unattributed"
                    if prediction.resteer == "decode":
                        detect = decode_done
                        if counting:
                            stats.decode_resteers += 1
                    else:
                        detect = decode_done + exec_resolve
                        if counting:
                            stats.exec_resteers += 1
                    restart = detect + repair + btb_extra_latency
                    if counting:
                        stats.resteer_causes[cause] = (
                            stats.resteer_causes.get(cause, 0) + 1)
                        resteer_latency.record(restart - iag_t)
                    # Wrong-path prefetches issued between iag_t and restart
                    # pollute the L1-I with sequential lines.
                    if prediction.wrong_path_pc is not None:
                        wrong_line = prediction.wrong_path_pc & line_mask
                        depth = min(pollution_max, ftq_size,
                                    int(restart - iag_t))
                        for step in range(1, depth + 1):
                            _, _, _ = hierarchy_access(
                                wrong_line + step * line_size, iag_t + step,
                                wrong_path=True)
                        if counting:
                            stats.wrong_path_fills = (
                                hierarchy.wrong_path_fills
                                - wrong_path_fills_at_count_start)
                    iag_free = restart
                    ftq_inflight.clear()
                    fetch_free = max(fetch_free, restart)

                # ----- Outcome and stage-time rows (observers) ----------
                if rows is not None:
                    rows.append((
                        prediction.btb_hit, branch_line_present,
                        prediction.comparator_hit, prediction.sbb_hit, head,
                        tail, prediction.resteer, prediction.resteer_cause,
                        None if prediction.resteer is None
                        else restart - iag_t))
                    if times is not None:
                        times.append((
                            iag_t, lines_ready, fetch_start, fetch_done,
                            fetch_stall, decode_start, decode_done,
                            decode_idle, retire_start, retire_free,
                            None if prediction.resteer is None else detect,
                            prediction.used_sbb))
                if counting:
                    counted_instructions += n_instr
                    counted_blocks += 1
                prev_taken = taken
                if intervals is not None and index + 1 == next_boundary:
                    intervals.boundary(
                        next_boundary, stats, counted_instructions,
                        counted_blocks,
                        retire_free - cycles_at_count_start if counting else 0.0)
                    next_boundary += interval_size

            ff_segment = ff_stop
            if (ff is not None and ff.active
                    and ff_segment == ff.next_probe
                    and ff_segment < n_records):
                state = ProbeState(iag_free, fetch_free, decode_free,
                                   retire_free, ftq_inflight, prev_taken,
                                   counted_instructions, counted_blocks,
                                   next_boundary)
                ff_segment = ff.on_probe(ff_segment, state)
                iag_free = state.iag_free
                fetch_free = state.fetch_free
                decode_free = state.decode_free
                retire_free = state.retire_free
                ftq_inflight = state.ftq_inflight
                counted_instructions = state.counted_instructions
                counted_blocks = state.counted_blocks
                next_boundary = state.next_boundary
                records_seen = self._records_seen + ff_segment
        if ff is not None:
            ff.finalize()
        if rows is not None:
            self._render_outcomes(compiled, rows, times, warmup)
        if intervals is not None:
            intervals.finish(
                records_seen - self._records_seen, stats,
                counted_instructions, counted_blocks,
                retire_free - cycles_at_count_start if counting else 0.0)
        self._records_seen = records_seen
        stats.instructions = counted_instructions
        stats.blocks = counted_blocks
        stats.cycles = max(retire_free - cycles_at_count_start, 1e-9)
        return stats


def simulate(program: Program, records: list[BlockRecord],
             config: FrontEndConfig, warmup: int = 0,
             seed: int = 0) -> SimStats:
    """Convenience one-shot simulation."""
    simulator = FrontEndSimulator(program, config, seed=seed)
    return simulator.run(records, warmup=warmup)
