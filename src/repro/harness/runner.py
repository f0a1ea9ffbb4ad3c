"""Memoised experiment execution.

Different figures reuse the same (workload, configuration) cells -- e.g.
the 8K-BTB baseline appears in Figures 1, 6, 14, 15, 16 and 18.  The
runner hashes a canonical key for each cell and runs each distinct cell
once per process.

Two layers sit under the in-memory memo:

* the **persistent result store** (:mod:`repro.harness.store`): finished
  ``SimStats`` are kept on disk keyed by content, so a cell simulated in
  *any* earlier process is an O(file-read) hit.  Disable with
  ``REPRO_NO_STORE=1`` or ``store=None``.
* the **process pool** (:mod:`repro.harness.parallel`): the batch APIs
  (:meth:`ExperimentRunner.run_cells` / :meth:`run_many`) fan distinct
  cells out over workers when ``jobs != 1``.  ``jobs=1`` (the default)
  never spawns a pool and stays bit-identical to the historical serial
  behaviour.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Sequence

from repro.frontend.batch import BatchedFrontEndSimulator
from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import FrontEndSimulator
from repro.frontend.plan import plan_engine, run_planned
from repro.frontend.stats import SimStats
from repro.harness.parallel import Cell, ParallelRunner
from repro.harness.progress import ProgressReporter, progress_enabled
from repro.harness.scale import Scale, current_scale
from repro.harness.store import ResultStore, config_key, default_store
from repro.obs import ledger as ledger_mod
from repro.obs.invariants import check_snapshot
from repro.obs.profiler import PROFILER
from repro.workloads.cache import GLOBAL_CACHE, WorkloadCache
from repro.workloads.compiled import batch_enabled

__all__ = ["ExperimentRunner", "config_key"]


class ExperimentRunner:
    """Runs (workload, config) cells with memoisation.

    ``store`` defaults to the environment-selected persistent store
    (pass ``None`` to keep results purely in-memory).  ``jobs`` sets the
    default parallelism of the batch APIs; ``run`` itself is always
    serial.
    """

    def __init__(self, scale: Scale | None = None, seed: int = 0,
                 cache: WorkloadCache | None = None,
                 store: ResultStore | None | str = "default",
                 jobs: int | None = None,
                 record_attribution: bool = False):
        self.scale = scale or current_scale()
        self.seed = seed
        self.cache = cache or GLOBAL_CACHE
        self.store = default_store() if store == "default" else store
        self.jobs = jobs
        #: When set, every uncached cell runs with an attribution
        #: aggregator attached and persists the per-branch/per-line
        #: artifact alongside its stats; a store hit lacking attribution
        #: is re-simulated (backfilled) so the artifact always exists.
        self.record_attribution = record_attribution
        self._results: dict[tuple, SimStats] = {}
        self._metrics: dict[tuple, dict[str, float]] = {}
        self._attribution: dict[tuple, dict] = {}
        self._intervals: dict[tuple, dict] = {}

    def _memo_key(self, workload: str, config: FrontEndConfig,
                  bolted: bool, seed: int) -> tuple:
        return (workload, bolted, self.scale.name, seed, config_key(config))

    def run(self, workload: str, config: FrontEndConfig,
            bolted: bool = False) -> SimStats:
        return self.run_with_metrics(workload, config, bolted=bolted)[0]

    def run_with_metrics(
            self, workload: str, config: FrontEndConfig,
            bolted: bool = False) -> tuple[SimStats, dict[str, float] | None]:
        """Like :meth:`run`, but also returns the metric snapshot.

        The snapshot is ``None`` only for results loaded from a store
        entry written before snapshots were persisted.
        """
        key = self._memo_key(workload, config, bolted, self.seed)
        cached = self._results.get(key)
        if cached is not None:
            return cached, self.metrics_for(workload, config, bolted=bolted)
        stats, metrics = self._run_uncached(workload, config, bolted,
                                            self.seed)
        self._results[key] = stats
        if metrics is not None:
            self._metrics[key] = metrics
        return stats, metrics

    def metrics_for(self, workload: str, config: FrontEndConfig,
                    bolted: bool = False) -> dict[str, float] | None:
        """The metric snapshot of an already-run cell (memo, then store)."""
        key = self._memo_key(workload, config, bolted, self.seed)
        metrics = self._metrics.get(key)
        if metrics is None and self.store is not None:
            store_key = self.store.key(workload, config, self.seed,
                                       self.scale, bolted=bolted)
            metrics = self.store.get_metrics(store_key)
            if metrics is not None:
                self._metrics[key] = metrics
        return metrics

    def attribution_for(self, workload: str, config: FrontEndConfig,
                        bolted: bool = False) -> dict | None:
        """The attribution artifact of an already-run cell (memo, store).

        Returns the JSON-able aggregator payload, or ``None`` when the
        cell ran without attribution recording (use
        :meth:`run_with_attribution` to force one into existence).
        """
        key = self._memo_key(workload, config, bolted, self.seed)
        attribution = self._attribution.get(key)
        if attribution is None and self.store is not None:
            store_key = self.store.key(workload, config, self.seed,
                                       self.scale, bolted=bolted)
            attribution = self.store.get_attribution(store_key)
            if attribution is not None:
                self._attribution[key] = attribution
        return attribution

    def run_with_attribution(self, workload: str, config: FrontEndConfig,
                             bolted: bool = False):
        """Run one cell and return ``(stats, AttributionAggregator)``.

        Forces attribution recording for this cell regardless of the
        runner's default, evicting a memoised attribution-less result if
        necessary (the store entry is backfilled in the process).
        """
        from repro.obs.attribution import AttributionAggregator

        previous = self.record_attribution
        self.record_attribution = True
        try:
            stats = self.run(workload, config, bolted=bolted)
            payload = self.attribution_for(workload, config, bolted=bolted)
            if payload is None:
                # Memoised earlier without attribution; drop and re-run.
                key = self._memo_key(workload, config, bolted, self.seed)
                self._results.pop(key, None)
                stats = self.run(workload, config, bolted=bolted)
                payload = self.attribution_for(workload, config,
                                               bolted=bolted)
        finally:
            self.record_attribution = previous
        if payload is None:  # pragma: no cover - store-less parallel only
            raise RuntimeError(
                "attribution artifact unavailable; parallel runs need a "
                "result store to hand artifacts back")
        return stats, AttributionAggregator.from_jsonable(payload)

    def intervals_for(self, workload: str, config: FrontEndConfig,
                      bolted: bool = False) -> dict | None:
        """The interval series of an already-run cell (memo, then store).

        Returns the JSON-able series payload, or ``None`` when the cell
        ran without interval telemetry (``config.interval_size == 0``,
        or a store entry that predates the series artifact -- use
        :meth:`run_with_intervals` to force one into existence).
        """
        key = self._memo_key(workload, config, bolted, self.seed)
        intervals = self._intervals.get(key)
        if intervals is None and self.store is not None:
            store_key = self.store.key(workload, config, self.seed,
                                       self.scale, bolted=bolted)
            intervals = self.store.get_intervals(store_key)
            if intervals is not None:
                self._intervals[key] = intervals
        return intervals

    def run_with_intervals(self, workload: str, config: FrontEndConfig,
                           bolted: bool = False, window: int | None = None):
        """Run one cell and return ``(stats, IntervalSeries)``.

        When ``config.interval_size`` is zero, ``window`` supplies it
        (the adjusted config addresses its own store cell, like any
        other knob change).  A memoised or stored result lacking the
        series artifact is evicted and re-simulated once.
        """
        from repro.obs.intervals import IntervalSeries

        if config.interval_size <= 0:
            if not window:
                raise ValueError(
                    "interval telemetry disabled: set config.interval_size "
                    "or pass window=")
            config = dataclasses.replace(config, interval_size=window)
        stats = self.run(workload, config, bolted=bolted)
        payload = self.intervals_for(workload, config, bolted=bolted)
        if payload is None:
            # Memoised earlier without the artifact; drop and re-run.
            key = self._memo_key(workload, config, bolted, self.seed)
            self._results.pop(key, None)
            stats = self.run(workload, config, bolted=bolted)
            payload = self.intervals_for(workload, config, bolted=bolted)
        if payload is None:  # pragma: no cover - store-less parallel only
            raise RuntimeError(
                "interval series unavailable; parallel runs need a result "
                "store to hand artifacts back")
        return stats, IntervalSeries.from_jsonable(payload)

    def _run_uncached(
            self, workload: str, config: FrontEndConfig, bolted: bool,
            seed: int, queued: bool = True
    ) -> tuple[SimStats, dict[str, float] | None]:
        """One cell, end to end, with full run-ledger lifecycle.

        ``queued`` is False when a batch entry point (``run_cells`` or
        the pool parent) already emitted the cell's ``queued`` record;
        standalone :meth:`run` calls emit it here.  With no active
        ledger the added cost is a handful of ``is None`` checks.
        """
        ledger = ledger_mod.active_ledger()
        cell_id = None
        if ledger is not None:
            cell_id = ledger_mod.cell_id_for(workload, config, seed, bolted)
            if queued:
                ledger.cell(cell_id, "queued")
            PROFILER.set_cell(cell_id)
        started = time.monotonic()
        try:
            stats, metrics, outcome = self._simulate_one(
                workload, config, bolted, seed, ledger, cell_id)
        except Exception as exc:
            if ledger is not None:
                ledger.cell(cell_id, "error",
                            error=f"{type(exc).__name__}: {exc}")
            raise
        finally:
            if ledger is not None:
                # The harness.cell section popped (with the cell stamp)
                # when _simulate_one returned; clear the stamp so later
                # sections are not mis-attributed.
                PROFILER.set_cell(None)
        if ledger is not None:
            # One group record per harness.cell span opened above.
            ledger.group([cell_id], mode="serial")
            ledger.cell(cell_id, "done", spanned=True,
                        wall_s=round(time.monotonic() - started, 6),
                        **outcome)
        return stats, metrics

    def _simulate_one(
            self, workload: str, config: FrontEndConfig, bolted: bool,
            seed: int, ledger, cell_id: str | None
    ) -> tuple[SimStats, dict[str, float] | None, dict]:
        """The cell body: store probe, prepare, simulate, store-write.

        Returns ``(stats, metrics, outcome_fields)``; the caller folds
        ``outcome_fields`` into the terminal ledger record.
        """
        with PROFILER.section("harness.cell"):
            store_key = None
            if self.store is not None:
                store_key = self.store.key(workload, config, seed,
                                           self.scale, bolted=bolted)
                stored = self.store.get(store_key)
                if ledger is not None:
                    ledger.cell(cell_id, "store_probe",
                                hit=stored is not None)
                if stored is not None:
                    # A hit only short-circuits when every artifact this
                    # run needs is present; an entry predating one falls
                    # through and re-simulates to backfill it.
                    backfill = None
                    if self.record_attribution:
                        attribution = self.store.get_attribution(store_key)
                        if attribution is None:
                            backfill = "attribution"
                        else:
                            self._attribution[self._memo_key(
                                workload, config, bolted, seed)] = attribution
                    if backfill is None and config.interval_size > 0:
                        intervals = self.store.get_intervals(store_key)
                        if intervals is None:
                            backfill = "intervals"
                        else:
                            self._intervals[self._memo_key(
                                workload, config, bolted, seed)] = intervals
                    if backfill is None:
                        return (stored, self.store.get_metrics(store_key),
                                {"result": "store_hit"})
            elif ledger is not None:
                ledger.cell(cell_id, "store_probe", hit=False, store=False)
            with PROFILER.section("harness.workload"):
                program = self.cache.program(workload, seed=seed,
                                             bolted=bolted)
                compiled = self.cache.compiled(
                    workload, self.scale.records, seed=seed,
                    bolted=bolted)
            if ledger is not None:
                ledger.cell(cell_id, "prepare", source="compile")
            with PROFILER.section("harness.simulate"):
                simulator = FrontEndSimulator(program, config, seed=seed)
                if self.record_attribution:
                    simulator.attach_attribution()
                stats, plan = run_planned(simulator, compiled,
                                          warmup=self.scale.warmup)
                metrics = simulator.metrics_snapshot()
            outcome = plan.outcome(simulator)
            if ledger is not None:
                ledger.cell(cell_id, "simulate",
                            **plan.ledger_fields(simulator))
                violations = check_snapshot(metrics)
                ledger.cell(cell_id, "invariants",
                            violations=[v.invariant for v in violations])
            attribution = None
            if self.record_attribution:
                attribution = simulator.attribution.to_jsonable()
                self._attribution[self._memo_key(
                    workload, config, bolted, seed)] = attribution
            intervals = None
            if simulator.intervals is not None:
                intervals = simulator.intervals.series().to_jsonable()
                self._intervals[self._memo_key(
                    workload, config, bolted, seed)] = intervals
            if self.store is not None:
                self.store.put(store_key, stats, metrics=metrics,
                               attribution=attribution, intervals=intervals)
                if ledger is not None:
                    ledger.cell(cell_id, "store_write", stored=True)
        return stats, metrics, outcome

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def run_cells(self, cells: Sequence[Cell],
                  jobs: int | None = None) -> list[SimStats]:
        """Simulate a batch of cells, in parallel when ``jobs != 1``.

        Results merge into the in-memory memo, so subsequent ``run``
        calls for the same cells are hits.  ``jobs`` falls back to the
        runner's default, then to serial.
        """
        jobs = jobs if jobs is not None else (self.jobs or 1)
        resolved = [cell.resolved(self.seed) for cell in cells]
        missing = [cell for cell in resolved
                   if cell.identity(self.scale) not in self._results]
        if missing:
            ledger = ledger_mod.active_ledger()
            progress = None
            if jobs == 1:
                if ledger is not None:
                    unique: dict[tuple, Cell] = {}
                    for cell in missing:
                        unique.setdefault(cell.identity(self.scale), cell)
                    ledger.grid(cells=len(unique), submitted=len(resolved),
                                jobs=1)
                    for cell in unique.values():
                        ledger.cell(ledger_mod.cell_id_for(
                            cell.workload, cell.config, cell.seed,
                            cell.bolted), "queued")
                    if progress_enabled():
                        progress = ProgressReporter(len(unique),
                                                    ledger=ledger)
                if batch_enabled() and not self.record_attribution:
                    self._run_missing_batched(missing, progress=progress)
                else:
                    for cell in missing:
                        key = cell.identity(self.scale)
                        if key not in self._results:
                            started = time.monotonic()
                            stats, metrics = self._run_uncached(
                                cell.workload, cell.config, cell.bolted,
                                cell.seed, queued=False)
                            self._results[key] = stats
                            if metrics is not None:
                                self._metrics[key] = metrics
                            if progress is not None:
                                progress.update(
                                    1,
                                    cell_id=ledger_mod.cell_id_for(
                                        cell.workload, cell.config,
                                        cell.seed, cell.bolted),
                                    wall_s=time.monotonic() - started)
                if progress is not None:
                    progress.finish()
            else:
                parallel = ParallelRunner(
                    scale=self.scale, jobs=jobs, store=self.store,
                    record_attribution=self.record_attribution)
                for cell, stats in zip(missing,
                                       parallel.run_batch(missing)):
                    self._results.setdefault(cell.identity(self.scale),
                                             stats)
        return [self._results[cell.identity(self.scale)]
                for cell in resolved]

    def _run_missing_batched(self, missing: Sequence[Cell],
                             progress: ProgressReporter | None = None
                             ) -> None:
        """Serial batch path: multi-lane kernel per shared trace.

        Groups uncached cells by (workload, seed, bolted) so every lane
        of a group replays one shared decode table in chunked lockstep
        -- the table rows and the process-wide shadow-decode tables stay
        hot across lanes instead of being streamed N times.  Store hits
        short-circuit exactly as :meth:`_run_uncached` does; the
        produced stats and metric snapshots are bit-identical to
        ``run_compiled``.

        Ledger semantics: each multi-lane group opens *one*
        ``harness.cell`` section, so it logs one ``group`` record
        covering its lanes; lane ``done`` records carry the shared group
        wall (``shared_wall=True``, excluded from straggler medians).
        Store hits short-circuit *before* the section and are therefore
        terminal with ``spanned=False``.
        """
        ledger = ledger_mod.active_ledger()
        groups: dict[tuple, list[Cell]] = {}
        seen: set[tuple] = set()
        for cell in missing:
            key = cell.identity(self.scale)
            if key in self._results or key in seen:
                continue
            seen.add(key)
            groups.setdefault(
                (cell.workload, cell.seed, cell.bolted), []).append(cell)
        for (workload, seed, bolted), cells in groups.items():
            pending: list[tuple[Cell, str | None]] = []
            for cell in cells:
                key = cell.identity(self.scale)
                cell_id = (ledger_mod.cell_id_for(workload, cell.config,
                                                  seed, bolted)
                           if ledger is not None else None)
                if self.store is not None:
                    store_key = self.store.key(workload, cell.config, seed,
                                               self.scale, bolted=bolted)
                    stored = self.store.get(store_key)
                    if (stored is not None and cell.config.interval_size > 0
                            and self.store.get_intervals(store_key) is None):
                        # Entry predates interval telemetry: treat as a
                        # miss and re-simulate to backfill the series.
                        stored = None
                    if ledger is not None:
                        ledger.cell(cell_id, "store_probe",
                                    hit=stored is not None)
                    if stored is not None:
                        self._results[key] = stored
                        metrics = self.store.get_metrics(store_key)
                        if metrics is not None:
                            self._metrics[key] = metrics
                        if ledger is not None:
                            ledger.cell(cell_id, "done", result="store_hit",
                                        spanned=False)
                        if progress is not None:
                            progress.update(1)
                        continue
                elif ledger is not None:
                    ledger.cell(cell_id, "store_probe", hit=False,
                                store=False)
                pending.append((cell, cell_id))
            if not pending:
                continue
            group_started = time.monotonic()
            if ledger is not None:
                PROFILER.set_cell(
                    f"group:{workload}:s{seed}"
                    + ("+bolt" if bolted else ""))
            finished: list = []
            try:
                with PROFILER.section("harness.cell"):
                    if ledger is not None:
                        ledger.group([cell_id for _, cell_id in pending],
                                     mode="batched-group")
                    with PROFILER.section("harness.workload"):
                        program = self.cache.program(workload, seed=seed,
                                                     bolted=bolted)
                        compiled = self.cache.compiled(
                            workload, self.scale.records, seed=seed,
                            bolted=bolted)
                    batch = BatchedFrontEndSimulator()
                    lanes = []
                    others = []
                    for cell, cell_id in pending:
                        if ledger is not None:
                            ledger.cell(cell_id, "prepare",
                                        source="compile")
                        simulator = FrontEndSimulator(program, cell.config,
                                                      seed=seed)
                        plan = plan_engine(simulator)
                        if plan.engine == "batched":
                            batch.add_lane(simulator, compiled,
                                           warmup=self.scale.warmup)
                            lanes.append((cell, cell_id, simulator, plan))
                        else:
                            # e.g. config.record_timeline attaches a
                            # recorder at init, which only run_compiled
                            # drives.
                            others.append((cell, cell_id, simulator))
                    with PROFILER.section("harness.simulate"):
                        finished = [
                            (cell, cell_id, simulator, stats, plan)
                            for (cell, cell_id, simulator, plan), stats
                            in zip(lanes, batch.run())]
                        finished += [
                            (cell, cell_id, simulator,
                             *run_planned(simulator, compiled,
                                          warmup=self.scale.warmup))
                            for cell, cell_id, simulator in others]
                    for cell, cell_id, simulator, stats, plan in finished:
                        metrics = simulator.metrics_snapshot()
                        self._results[cell.identity(self.scale)] = stats
                        self._metrics[cell.identity(self.scale)] = metrics
                        intervals = None
                        if simulator.intervals is not None:
                            intervals = (
                                simulator.intervals.series().to_jsonable())
                            self._intervals[
                                cell.identity(self.scale)] = intervals
                        if ledger is not None:
                            ledger.cell(cell_id, "simulate",
                                        **plan.ledger_fields(simulator))
                            ledger.cell(cell_id, "invariants",
                                        violations=[v.invariant for v in
                                                    check_snapshot(metrics)])
                        if self.store is not None:
                            store_key = self.store.key(
                                workload, cell.config, seed, self.scale,
                                bolted=bolted)
                            self.store.put(store_key, stats,
                                           metrics=metrics,
                                           intervals=intervals)
                            if ledger is not None:
                                ledger.cell(cell_id, "store_write",
                                            stored=True)
            except Exception as exc:
                if ledger is not None:
                    for cell, cell_id in pending:
                        ledger.cell(cell_id, "error",
                                    error=f"{type(exc).__name__}: {exc}")
                raise
            finally:
                if ledger is not None:
                    PROFILER.set_cell(None)
            if ledger is not None:
                group_wall = round(time.monotonic() - group_started, 6)
                for cell, cell_id, simulator, stats, plan in finished:
                    ledger.cell(cell_id, "done", spanned=True,
                                wall_s=group_wall, shared_wall=True,
                                **plan.outcome(simulator))
            if progress is not None:
                progress.update(len(pending))

    def run_many(self, workloads: list[str], config: FrontEndConfig,
                 bolted: bool = False,
                 jobs: int | None = None) -> dict[str, SimStats]:
        cells = [Cell(workload, config, self.seed, bolted)
                 for workload in workloads]
        stats = self.run_cells(cells, jobs=jobs)
        return dict(zip(workloads, stats))

    def clear(self) -> None:
        self._results.clear()
        self._metrics.clear()
        self._attribution.clear()
        self._intervals.clear()
