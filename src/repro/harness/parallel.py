"""Process-pool experiment execution.

The figure suite sweeps dozens of (workload, config, seed) cells; each
cell is an independent, deterministic simulation, which makes the grid
embarrassingly parallel.  :class:`ParallelRunner` deduplicates a batch of
cells by their canonical identity (the same key the serial runner memos
on), groups them by (workload, seed, bolted) exactly as the serial path
does (:func:`group_cells`), and maps one pool task per group over a
``ProcessPoolExecutor``.  Each task sends back every cell's
:data:`CellResult` -- stats plus the attribution, interval and metric
artifacts -- so the parent's memo holds what a serial run would, with or
without a store.

Determinism: a worker runs each task through the serial path's own body
(:meth:`~repro.harness.runner.ExperimentRunner.run_group`) -- same store
probe, program generation, trace, simulator seed, lane batch, persisted
artifacts and ledger lifecycle -- so ``jobs>1`` results are
bit-identical to ``jobs=1``.  A group is simulated in one process, which
generates and compiles its trace once, so a grid run generates each
trace once per host under any start method.  Only when there are fewer
groups than workers is the largest group split in halves
(:func:`pool_tasks`), trading one extra trace generation for the idle
worker.

Worker count comes from ``REPRO_JOBS`` (``0`` or unset means the CPUs
*available to this process* -- ``os.process_cpu_count()`` semantics, not
the machine total).  Workers share the persistent
:mod:`~repro.harness.store` when one is configured, so a cell simulated
by any worker is on disk for every later process.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from repro.frontend.config import FrontEndConfig
from repro.frontend.stats import SimStats
from repro.harness.scale import Scale, current_scale
from repro.harness.store import ResultStore, default_store
from repro.obs import ledger as ledger_mod
from repro.obs.profiler import PROFILER


#: One finished cell as a runner memoises it: ``(stats, attribution,
#: intervals, metrics)``, the artifacts ``None`` when not produced.
CellResult = tuple[SimStats, dict | None, dict | None,
                   dict[str, float] | None]


@dataclass(frozen=True)
class Cell:
    """One point of the evaluation grid.

    ``seed=None`` means "the runner's seed": batch APIs resolve it before
    execution, so planners can stay seed-agnostic.
    """

    workload: str
    config: FrontEndConfig
    seed: int | None = None
    bolted: bool = False

    def resolved(self, default_seed: int) -> "Cell":
        if self.seed is not None:
            return self
        return Cell(self.workload, self.config, default_seed, self.bolted)

    def identity(self, scale: Scale) -> tuple:
        """The dedup/memo key; ``ExperimentRunner``'s memo key.

        Holds the frozen config itself: its equality compares the same
        field values :func:`~repro.harness.store.config_key` spells out,
        without building that spelling on every lookup.
        """
        return (self.workload, self.bolted, scale.name, self.seed,
                self.config)

    @property
    def cell_id(self) -> str:
        """The run ledger's id for this (resolved) cell."""
        return ledger_mod.cell_id_for(self.workload, self.config,
                                      self.seed, self.bolted)


def available_cpus() -> int:
    """CPUs *usable by this process* (cgroup/affinity aware).

    ``os.process_cpu_count`` (3.13+) when present; otherwise the
    scheduling affinity mask, falling back to the machine total only
    when neither is available.  Sizing pools by the machine total
    oversubscribes containers and ``taskset``-restricted CI runners.
    """
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        return counter() or 1
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS``; 0/unset means available CPUs."""
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if raw:
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS={raw!r}; expected an integer") from None
        if jobs > 0:
            return jobs
    return available_cpus()


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a jobs request: None/0 -> REPRO_JOBS/cpu_count."""
    if jobs is None or jobs <= 0:
        return default_jobs()
    return jobs


#: Per-worker memo of attached run telemetry, keyed by (pid, run_dir);
#: the pid guards against a fork inheriting the parent's entry.
_WORKER_TELEMETRY: dict[tuple[int, str], "ledger_mod.RunLedger"] = {}


def _worker_telemetry(run_dir: str) -> "ledger_mod.RunLedger":
    """Attach this worker to the parent's run (memoised per process).

    Opens the worker's own manifest/span descriptors on the shared run
    directory (``O_APPEND`` writes interleave safely with every other
    process of the run).  Attaching the profiler drops the spans and
    open sections a forked worker inherits: the *parent* writes those
    under its own pid.
    """
    key = (os.getpid(), run_dir)
    ledger = _WORKER_TELEMETRY.get(key)
    if ledger is None:
        ledger = ledger_mod.RunLedger.attach(run_dir)
        ledger_mod.set_active(ledger)
        PROFILER.attach(ledger.spans_path)
        _WORKER_TELEMETRY[key] = ledger
    return ledger


def group_cells(cells: Iterable[Cell]) -> list[list[Cell]]:
    """Resolved cells grouped by (workload, seed, bolted), in first-seen
    order: the unit of :meth:`ExperimentRunner.run_group
    <repro.harness.runner.ExperimentRunner.run_group>` on every path."""
    groups: dict[tuple, list[Cell]] = {}
    for cell in cells:
        groups.setdefault((cell.workload, cell.seed, cell.bolted),
                          []).append(cell)
    return list(groups.values())


def pool_tasks(cells: Iterable[Cell], workers: int) -> list[list[Cell]]:
    """One task per :func:`group_cells` group; while there are fewer
    tasks than ``workers``, the largest task is split in halves."""
    tasks = group_cells(cells)
    while 0 < len(tasks) < workers:
        largest = max(tasks, key=len)
        if len(largest) < 2:
            break
        tasks.remove(largest)
        half = len(largest) // 2
        tasks += [largest[:half], largest[half:]]
    return tasks


def simulate_group(cells: Sequence[Cell], scale: Scale,
                   store_root: str | None = None,
                   record_attribution: bool = False,
                   run_dir: str | None = None) -> list[CellResult]:
    """Run one pool task -- resolved cells sharing a (workload, seed,
    bolted) -- through :meth:`ExperimentRunner.run_group
    <repro.harness.runner.ExperimentRunner.run_group>`; returns each
    cell's :data:`CellResult`.

    Module-level so it pickles into pool workers.  The group runs with
    the same store probe, lane batch, persistence and ledger lifecycle
    as a serial run, so results and artifacts are bit-identical, against
    the store at ``store_root`` (if any) and the per-process workload
    cache.  ``run_dir`` carries the parent's active run directory: the
    worker attaches its own ledger/span telemetry to it (memoised per
    process), and after the group sends a heartbeat and flushes its
    spans.  The pool parent already recorded the cells' ``queued``.
    """
    from repro.harness.runner import ExperimentRunner

    ledger = ledger_mod.active_ledger()
    if ledger is None and run_dir is not None:
        ledger = _worker_telemetry(run_dir)
    runner = ExperimentRunner(
        scale=scale, seed=cells[0].seed,
        store=ResultStore(store_root) if store_root else None,
        record_attribution=record_attribution)
    try:
        runner.run_group(cells)
        return [runner.result(cell) for cell in cells]
    finally:
        if ledger is not None:
            ledger.heartbeat(cells=len(cells))
            # Flush spans after every group, so a crashed worker leaves
            # its finished groups' spans behind (the parent flushes at
            # run end).
            PROFILER.flush()


class ParallelRunner:
    """Fans a batch of cells out over a process pool, one task per
    (workload, seed, bolted) group (see :func:`pool_tasks`).

    ``jobs`` resolves through :func:`resolve_jobs`; serial execution is
    :meth:`ExperimentRunner.run_cells
    <repro.harness.runner.ExperimentRunner.run_cells>` with ``jobs=1``,
    which never builds one of these.
    """

    def __init__(self, scale: Scale | None = None, jobs: int | None = None,
                 store: ResultStore | None | str = "default",
                 record_attribution: bool = False):
        self.scale = scale or current_scale()
        self.jobs = resolve_jobs(jobs)
        self.store = default_store() if store == "default" else store
        self.record_attribution = record_attribution

    def run_batch(self, cells: Sequence[Cell],
                  default_seed: int = 0) -> list[SimStats]:
        """Simulate ``cells``; returns stats aligned with the input."""
        return [result[0] for result in self.run_results(cells,
                                                         default_seed)]

    def run_results(self, cells: Sequence[Cell],
                    default_seed: int = 0) -> list[CellResult]:
        """Simulate ``cells``; returns each one's :data:`CellResult`,
        aligned with the input.

        Duplicate cells (same canonical identity) are simulated once.
        """
        resolved = [cell.resolved(default_seed) for cell in cells]
        unique: dict[tuple, Cell] = {}
        for cell in resolved:
            unique.setdefault(cell.identity(self.scale), cell)
        tasks = pool_tasks(unique.values(), self.jobs)
        workers = min(self.jobs, len(tasks))

        ledger = ledger_mod.active_ledger()
        progress = None
        run_dir = None
        if ledger is not None and unique:
            run_dir = str(ledger.run_dir)
            ledger.submit([cell.cell_id for task in tasks for cell in task],
                          submitted=len(resolved), jobs=workers)
            from repro.harness.progress import (ProgressReporter,
                                                progress_enabled)
            if progress_enabled():
                progress = ProgressReporter(len(unique))

        simulate = partial(
            simulate_group, scale=self.scale,
            store_root=None if self.store is None else str(self.store.root),
            record_attribution=self.record_attribution, run_dir=run_dir)
        by_identity: dict[tuple, CellResult] = {}
        if tasks:
            # Workers profile into their own PROFILER (discarded unless
            # a run is active, in which case each worker writes its own
            # spans); this section times the dispatch + result
            # collection layer.
            with PROFILER.section("harness.parallel_batch"):
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    for task, results in zip(tasks, pool.map(
                            simulate, tasks, chunksize=1)):
                        for cell, result in zip(task, results):
                            by_identity[cell.identity(self.scale)] = result
                        if progress is not None:
                            progress.update(len(task))
        if progress is not None:
            progress.finish()
        return [by_identity[cell.identity(self.scale)] for cell in resolved]
