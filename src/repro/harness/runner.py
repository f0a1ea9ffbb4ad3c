"""Memoised experiment execution.

Different figures reuse the same (workload, configuration) cells -- e.g.
the 8K-BTB baseline appears in Figures 1, 6, 14, 15, 16 and 18.  The
runner hashes a canonical key for each cell and runs each distinct cell
once per process.

Every cell runs through one body, :meth:`ExperimentRunner.run_group`:
``run`` hands it a one-cell group, ``run_cells`` each (workload, seed,
bolted) group of its missing cells -- serially, or as one pool task per
group (:func:`repro.harness.parallel.simulate_group`) -- and ``repro
run`` a one-cell group with its trace/timeline set-up.
So the store probe, the backfill rule, the persisted artifacts and the
run-ledger lifecycle are the same on every path.

Two layers sit under the in-memory memo:

* the **persistent result store** (:mod:`repro.harness.store`): finished
  ``SimStats`` are kept on disk keyed by content, so a cell simulated in
  *any* earlier process is an O(file-read) hit.  Disable with
  ``REPRO_NO_STORE=1`` or ``store=None``.
* the **process pool** (:mod:`repro.harness.parallel`): the batch APIs
  (:meth:`ExperimentRunner.run_cells` / :meth:`run_many`) fan distinct
  cell groups out over workers when more than one worker resolves.
  ``jobs=1`` (the default) never spawns a pool; both paths are
  bit-identical.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from repro.frontend.batch import BatchedFrontEndSimulator
from repro.frontend.config import FrontEndConfig
from repro.frontend.engine import FrontEndSimulator
from repro.frontend.stats import SimStats
from repro.harness.parallel import (Cell, CellResult, ParallelRunner,
                                    group_cells, resolve_jobs)
from repro.harness.progress import ProgressReporter, progress_enabled
from repro.harness.scale import Scale, current_scale
from repro.harness.store import ResultStore, config_key, default_store
from repro.obs import ledger as ledger_mod
from repro.obs.invariants import check_snapshot
from repro.obs.profiler import PROFILER
from repro.workloads.cache import GLOBAL_CACHE, WorkloadCache

__all__ = ["ExperimentRunner", "config_key"]


def _unrecorded(*args, **fields) -> None:
    """Stand-in for ``RunLedger.cell`` when no run is active."""


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
        #: When set, every simulated cell runs with an attribution
        #: aggregator attached and persists the per-branch/per-line
        #: artifact alongside its stats; a store hit lacking attribution
        #: is re-simulated (backfilled) so the artifact always exists.
        self.record_attribution = record_attribution
        self._results: dict[tuple, SimStats] = {}
        self._metrics: dict[tuple, dict[str, float]] = {}
        self._attribution: dict[tuple, dict] = {}
        self._intervals: dict[tuple, dict] = {}

    def _memo_key(self, workload: str, config: FrontEndConfig,
                  bolted: bool) -> tuple:
        return Cell(workload, config, self.seed, bolted).identity(self.scale)

    def run(self, workload: str, config: FrontEndConfig,
            bolted: bool = False,
            setup: Callable[[FrontEndSimulator], None] | None = None
            ) -> SimStats:
        """Run one cell (memo, then store, then simulate) for its stats.

        ``setup`` is applied to the simulator when the cell is simulated
        (see :meth:`run_group`); a memo or store hit skips it.  The
        cell's artifacts are read afterwards with :meth:`metrics_for`,
        :meth:`attribution_for` and :meth:`intervals_for`.
        """
        cell = Cell(workload, config, self.seed, bolted)
        stats = self._results.get(cell.identity(self.scale))
        if stats is None:
            ledger = ledger_mod.active_ledger()
            if ledger is not None:
                ledger.submit([cell.cell_id], submitted=1, jobs=1)
            [stats] = self.run_group([cell], setup=setup)
        return stats

    def _artifact(self, memo: dict, read, workload: str,
                  config: FrontEndConfig, bolted: bool):
        """A cell's artifact from ``memo``, else from the store through
        ``read`` (an unbound ``ResultStore`` getter)."""
        key = self._memo_key(workload, config, bolted)
        value = memo.get(key)
        if value is None and self.store is not None:
            value = read(self.store, self.store.key(
                workload, config, self.seed, self.scale, bolted=bolted))
            if value is not None:
                memo[key] = value
        return value

    def metrics_for(self, workload: str, config: FrontEndConfig,
                    bolted: bool = False) -> dict[str, float] | None:
        """The metric snapshot of an already-run cell (memo, then store)."""
        return self._artifact(self._metrics, ResultStore.get_metrics,
                              workload, config, bolted)

    def attribution_for(self, workload: str, config: FrontEndConfig,
                        bolted: bool = False) -> dict | None:
        """The attribution artifact of an already-run cell (memo, store).

        Returns the JSON-able aggregator payload, or ``None`` when the
        cell ran without attribution recording (a runner built with
        ``record_attribution=True`` records it, backfilling a store
        entry that lacks it).
        """
        return self._artifact(self._attribution, ResultStore.get_attribution,
                              workload, config, bolted)

    def intervals_for(self, workload: str, config: FrontEndConfig,
                      bolted: bool = False) -> dict | None:
        """The interval series of an already-run cell (memo, then store).

        Returns the JSON-able series payload, or ``None`` when the cell
        ran without interval telemetry (``config.interval_size == 0``).
        A store entry that predates the series artifact is re-simulated
        by the store probe, which backfills it.
        """
        return self._artifact(self._intervals, ResultStore.get_intervals,
                              workload, config, bolted)

    def result(self, cell: Cell) -> CellResult:
        """A memoised cell's stats and artifacts, as :meth:`_remember`
        takes them."""
        key = cell.identity(self.scale)
        return (self._results[key], self._attribution.get(key),
                self._intervals.get(key), self._metrics.get(key))

    def _remember(self, key: tuple, stats: SimStats, attribution,
                  intervals, metrics: dict[str, float] | None) -> None:
        """Memoise one finished cell and whichever artifacts it has."""
        self._results[key] = stats
        for memo, value in ((self._metrics, metrics),
                            (self._attribution, attribution),
                            (self._intervals, intervals)):
            if value is not None:
                memo[key] = value

    # ------------------------------------------------------------------
    # The cell body
    # ------------------------------------------------------------------

    def run_group(self, cells: Sequence[Cell],
                  setup: Callable[[FrontEndSimulator], None] | None = None,
                  progress: ProgressReporter | None = None
                  ) -> list[SimStats]:
        """Run distinct resolved cells sharing one (workload, seed,
        bolted); returns their stats in order.

        Every cell of every path runs here, in these steps:

        1. Probe the store with :meth:`ResultStore.get_complete` (stats,
           attribution when recorded, intervals when
           ``interval_size > 0``, and the metric snapshot, all from one
           read of the entry).  A complete hit is terminal and
           unspanned (``done`` with ``spanned=False``) and writes
           nothing else; an incomplete entry re-simulates and the
           rewrite backfills the missing artifact.
        2. Open one ``harness.cell`` span (one ``group`` ledger record)
           over the misses and prepare the program and compiled trace
           from the workload cache.
        3. Build each simulator, attach attribution when recorded, then
           apply ``setup``, and add it as a lane of one shared kernel
           batch.
        4. Run the batch.  Per cell, snapshot metrics, export the
           attribution and interval artifacts, ``store.put`` them, and
           record ``prepare -> simulate -> invariants -> store_write ->
           done``.  ``simulate`` and ``done`` carry the run's
           fast-forward summary; the lanes of a multi-lane batch share
           one wall (``shared_wall=True``).

        Callers record ``queued`` (``RunLedger.submit``) beforehand.
        """
        ledger = ledger_mod.active_ledger()
        record = _unrecorded if ledger is None else ledger.cell
        keys = [cell.identity(self.scale) for cell in cells]
        pending: list[tuple[Cell, tuple, str | None, str | None]] = []
        for cell, key in zip(cells, keys):
            cell_id = None if ledger is None else cell.cell_id
            PROFILER.set_cell(cell_id)
            store_key = None
            if self.store is None:
                record(cell_id, "store_probe", hit=False, store=False)
            else:
                store_key = self.store.key(cell.workload, cell.config,
                                           cell.seed, self.scale,
                                           bolted=cell.bolted)
                hit = self.store.get_complete(store_key, cell.config,
                                              self.record_attribution)
                record(cell_id, "store_probe", hit=hit is not None)
                if hit is not None:
                    self._remember(key, *hit)
                    record(cell_id, "done", result="store_hit",
                           spanned=False)
                    if progress is not None:
                        progress.update(1)
                    continue
            pending.append((cell, key, cell_id, store_key))
        PROFILER.set_cell(None)
        if pending:
            self._simulate_group(pending, setup, progress, ledger, record)
        return [self._results[key] for key in keys]

    def _simulate_group(self, pending, setup, progress, ledger,
                        record) -> None:
        """Steps 2-4 of :meth:`run_group`, for the cells the store lacks."""
        first = pending[0][0]
        workload, seed, bolted = first.workload, first.seed, first.bolted
        warmup = self.scale.warmup
        label = pending[0][2]
        if len(pending) > 1 and ledger is not None:
            label = f"group:{workload}:s{seed}" + ("+bolt" if bolted else "")
        PROFILER.set_cell(label)
        mark = time.monotonic()

        def finish(entry, simulator, stats, shared) -> None:
            _, key, cell_id, store_key = entry
            metrics = simulator.metrics_snapshot()
            attribution = intervals = None
            if simulator.attribution is not None:
                attribution = simulator.attribution.to_jsonable()
            if simulator.intervals is not None:
                intervals = simulator.intervals.series().to_jsonable()
            fastforward = simulator.fastforward_summary
            record(cell_id, "simulate", fastforward=fastforward)
            if ledger is not None:
                record(cell_id, "invariants", violations=[
                    v.invariant for v in check_snapshot(metrics)])
            if self.store is not None:
                self.store.put(store_key, stats, metrics=metrics,
                               attribution=attribution, intervals=intervals)
                record(cell_id, "store_write", stored=True)
            wall_s = round(time.monotonic() - mark, 6)
            record(cell_id, "done", spanned=True, wall_s=wall_s,
                   shared_wall=shared, result="simulated",
                   fastforward=fastforward)
            if progress is not None:
                progress.update(1)
            self._remember(key, stats, attribution, intervals, metrics)

        lanes = []
        try:
            with PROFILER.section("harness.cell"):
                if ledger is not None:
                    ledger.group([entry[2] for entry in pending])
                with PROFILER.section("harness.workload"):
                    program = self.cache.program(workload, seed=seed,
                                                 bolted=bolted)
                    compiled = self.cache.compiled(
                        workload, self.scale.records, seed=seed,
                        bolted=bolted)
                batch = BatchedFrontEndSimulator()
                for entry in pending:
                    record(entry[2], "prepare")
                    simulator = FrontEndSimulator(program, entry[0].config,
                                                  seed=seed)
                    if self.record_attribution:
                        simulator.attach_attribution()
                    if setup is not None:
                        setup(simulator)
                    batch.add_lane(simulator, compiled, warmup=warmup)
                    lanes.append((entry, simulator))
                with PROFILER.section("harness.simulate"):
                    results = batch.run()
                for (entry, simulator), stats in zip(lanes, results):
                    finish(entry, simulator, stats, len(lanes) > 1)
        except Exception as exc:
            for _, key, cell_id, _ in pending:
                if key not in self._results:
                    record(cell_id, "error",
                           error=f"{type(exc).__name__}: {exc}")
            raise
        finally:
            PROFILER.set_cell(None)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------

    def run_cells(self, cells: Sequence[Cell],
                  jobs: int | None = None) -> list[SimStats]:
        """Simulate a batch of cells, in parallel when ``jobs`` resolves
        to more than one worker.

        Results merge into the in-memory memo, so subsequent ``run``
        calls for the same cells are hits.  ``jobs`` falls back to the
        runner's default, then to serial.  Each (workload, seed,
        bolted) group of missing cells is one :meth:`run_group` --
        in this process, or as one pool task -- so its cells share one
        lane batch.
        """
        jobs = resolve_jobs(jobs if jobs is not None else (self.jobs or 1))
        resolved = [cell.resolved(self.seed) for cell in cells]
        keys = [cell.identity(self.scale) for cell in resolved]
        missing = {key: cell for key, cell in zip(keys, resolved)
                   if key not in self._results}
        if missing and jobs <= 1:
            ledger = ledger_mod.active_ledger()
            progress = None
            if ledger is not None:
                ledger.submit([cell.cell_id for cell in missing.values()],
                              submitted=len(resolved), jobs=1)
                if progress_enabled():
                    progress = ProgressReporter(len(missing), ledger=ledger)
            for group in group_cells(missing.values()):
                self.run_group(group, progress=progress)
            if progress is not None:
                progress.finish()
        elif missing:
            pool = ParallelRunner(
                scale=self.scale, jobs=jobs, store=self.store,
                record_attribution=self.record_attribution)
            for key, result in zip(missing, pool.run_results(
                    list(missing.values()))):
                self._remember(key, *result)
        return [self._results[key] for key in keys]

    def run_many(self, workloads: list[str], config: FrontEndConfig,
                 bolted: bool = False,
                 jobs: int | None = None) -> dict[str, SimStats]:
        cells = [Cell(workload, config, self.seed, bolted)
                 for workload in workloads]
        stats = self.run_cells(cells, jobs=jobs)
        return dict(zip(workloads, stats))
