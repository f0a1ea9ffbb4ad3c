"""Process-pool experiment execution.

The figure suite sweeps dozens of (workload, config, seed) cells; each
cell is an independent, deterministic simulation, which makes the grid
embarrassingly parallel.  :class:`ParallelRunner` deduplicates a batch of
cells by their canonical identity (the same key the serial runner memos
on), fans the distinct cells out over a ``ProcessPoolExecutor``, and
returns ``SimStats`` in input order.

Determinism: a worker runs each cell through the serial path's own cell
body (:meth:`~repro.harness.runner.ExperimentRunner.run_group`) -- same
store probe, program generation, trace, simulator seed, persisted
artifacts and ledger lifecycle -- so ``jobs>1`` results are
bit-identical to ``jobs=1``.  Serial execution stays the default
(``jobs=1`` never spawns a pool).

Worker count comes from ``REPRO_JOBS`` (``0`` or unset means the CPUs
*available to this process* -- ``os.process_cpu_count()`` semantics, not
the machine total).  Workers share the persistent
:mod:`~repro.harness.store` when one is configured, so a cell simulated
by any worker is on disk for every later process.

Traces cross the process boundary zero-copy: the parent compiles each
distinct (workload, seed, bolted) trace once into flat
:class:`~repro.workloads.compiled.CompiledTrace` columns, publishes the
buffer through ``multiprocessing.shared_memory`` (or a cache-directory
spill file where ``/dev/shm`` is unavailable), and ships only the
segment *name* in the task tuple.  Workers attach read-only views and
memoise the attachment, so a grid run generates and compiles each trace
exactly once per host instead of once per worker.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from repro.frontend.config import FrontEndConfig
from repro.frontend.stats import SimStats
from repro.harness.scale import Scale, current_scale
from repro.harness.store import ResultStore, config_key, default_store
from repro.obs import ledger as ledger_mod
from repro.obs.profiler import PROFILER


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
        """The dedup/memo key; ``ExperimentRunner``'s memo key."""
        return (self.workload, self.bolted, scale.name, self.seed,
                config_key(self.config))

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


#: Per-worker memo of attached compiled traces, keyed by shared ref.
#: A pool worker serves many cells of the same workload; attaching once
#: and reusing the views keeps the per-cell cost at dictionary lookup.
_ATTACHED_TRACES: dict[tuple[str, str], "object"] = {}


def _attached_trace(trace_ref: tuple[str, str]):
    """Attach (memoised) the parent's published compiled trace."""
    from repro.workloads.compiled import CompiledTrace

    cached = _ATTACHED_TRACES.get(trace_ref)
    if cached is None or cached.closed:
        cached = CompiledTrace.attach(trace_ref)
        _ATTACHED_TRACES[trace_ref] = cached
    return cached


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


def simulate_cell(workload: str, config: FrontEndConfig, seed: int,
                  bolted: bool, scale: Scale,
                  store_root: str | None = None,
                  record_attribution: bool = False,
                  trace_ref: tuple[str, str] | None = None,
                  run_dir: str | None = None) -> SimStats:
    """Run one cell in a pool worker through the runner's cell body.

    Module-level so it pickles into pool workers.  The cell runs as a
    one-cell group of :meth:`ExperimentRunner.run_group
    <repro.harness.runner.ExperimentRunner.run_group>` -- the same
    store probe, simulation, persistence and ledger lifecycle as a
    serial run, so results and artifacts are bit-identical -- against
    the store at ``store_root`` (if any) and the per-process workload
    cache, so cells sharing a (workload, seed) reuse programs and traces
    within a worker.

    What stays here is worker-side only.  ``trace_ref`` is the parent's
    published compiled trace (see
    :meth:`~repro.workloads.compiled.CompiledTrace.shared_ref`): the
    worker attaches the shared columns -- zero-copy, memoised per
    worker -- instead of re-generating the trace, and compiles locally
    when the ref is absent or gone; both are bit-identical.
    ``run_dir`` carries the parent's active run directory: the worker
    attaches its own ledger/span telemetry to it (memoised per process),
    and after the cell sends a heartbeat and flushes its spans.  The
    pool parent already recorded the cell's ``queued``.
    """
    from repro.harness.runner import ExperimentRunner

    ledger = ledger_mod.active_ledger()
    if ledger is None and run_dir is not None:
        ledger = _worker_telemetry(run_dir)
    compiled = None
    if trace_ref is not None:
        try:
            compiled = _attached_trace(trace_ref)
        except (FileNotFoundError, OSError, ValueError):
            # The parent's segment/spill vanished (e.g. evicted
            # mid-batch); the body compiles locally instead.
            pass
    runner = ExperimentRunner(
        scale=scale, seed=seed,
        store=ResultStore(store_root) if store_root else None,
        record_attribution=record_attribution)
    cell = Cell(workload, config, seed, bolted)
    try:
        [stats] = runner.run_group([cell], compiled=compiled)
    finally:
        if ledger is not None:
            ledger.heartbeat(cell=cell.cell_id)
            # Flush spans after every cell, so a crashed worker leaves
            # its finished cells' spans behind (the parent flushes at
            # run end).
            PROFILER.flush()
    return stats


def _simulate_packed(packed: tuple) -> SimStats:
    return simulate_cell(*packed)


class ParallelRunner:
    """Fans a batch of cells out over a process pool.

    ``jobs=1`` runs every cell in-process (no pool, no pickling), which
    keeps the serial path bit-identical and debuggable; any other value
    resolves through :func:`resolve_jobs`.
    """

    def __init__(self, scale: Scale | None = None, jobs: int | None = None,
                 store: ResultStore | None | str = "default",
                 record_attribution: bool = False):
        self.scale = scale or current_scale()
        self.jobs = 1 if jobs == 1 else resolve_jobs(jobs)
        self.store = default_store() if store == "default" else store
        #: Workers hand attribution artifacts back through the store, so
        #: recording without a store silently discards them.
        self.record_attribution = record_attribution

    @property
    def _store_root(self) -> str | None:
        return None if self.store is None else str(self.store.root)

    def _publish_traces(self, ordered: Sequence[tuple[tuple, Cell]],
                        workers: int) -> dict[tuple, tuple[str, str]]:
        """Compile + publish each distinct trace once, parent-side.

        Returns ``{(workload, seed, bolted): shared_ref}`` for every
        trace at least one pool worker will actually replay.  Groups
        whose cells are all complete in the persistent store are skipped:
        :meth:`ResultStore.get_complete` is the rule workers probe with,
        so those workers never simulate.  So is the whole step for
        in-process execution -- the worker path
        then reads the process-local cache directly.  Segments are owned
        by the global workload cache, so their lifetime follows normal
        LRU eviction rather than this batch.
        """
        from repro.workloads.cache import GLOBAL_CACHE

        if workers <= 1:
            return {}
        needed: dict[tuple, Cell] = {}
        for _, cell in ordered:
            group = (cell.workload, cell.seed, cell.bolted)
            if group in needed:
                continue
            if self.store is not None and self.store.get_complete(
                    self.store.key(cell.workload, cell.config, cell.seed,
                                   self.scale, bolted=cell.bolted),
                    cell.config, self.record_attribution) is not None:
                continue
            needed[group] = cell
        refs: dict[tuple, tuple[str, str]] = {}
        for group, cell in needed.items():
            compiled = GLOBAL_CACHE.compiled(
                cell.workload, self.scale.records, seed=cell.seed,
                bolted=cell.bolted)
            refs[group] = compiled.shared_ref()
        return refs

    def run_batch(self, cells: Sequence[Cell],
                  default_seed: int = 0) -> list[SimStats]:
        """Simulate ``cells``; returns stats aligned with the input.

        Duplicate cells (same canonical identity) are simulated once.
        """
        resolved = [cell.resolved(default_seed) for cell in cells]
        unique: dict[tuple, Cell] = {}
        for cell in resolved:
            unique.setdefault(cell.identity(self.scale), cell)

        # Group same-workload cells together so static chunks reuse each
        # worker's program/trace cache, but keep chunks small enough for
        # load balancing.
        ordered = sorted(
            unique.items(),
            key=lambda item: (item[1].workload, item[1].seed,
                              item[1].bolted))
        workers = min(self.jobs, len(ordered)) if ordered else 0
        trace_refs = self._publish_traces(ordered, workers)

        ledger = ledger_mod.active_ledger()
        progress = None
        run_dir = None
        if ledger is not None and ordered:
            run_dir = str(ledger.run_dir)
            ledger.submit([cell.cell_id for _, cell in ordered],
                          submitted=len(resolved), jobs=max(workers, 1))
            from repro.harness.progress import (ProgressReporter,
                                                progress_enabled)
            if progress_enabled():
                progress = ProgressReporter(len(ordered), ledger=ledger)

        packed = [(cell.workload, cell.config, cell.seed, cell.bolted,
                   self.scale, self._store_root, self.record_attribution,
                   trace_refs.get((cell.workload, cell.seed, cell.bolted)),
                   run_dir)
                  for _, cell in ordered]

        if workers <= 1:
            stats_list = []
            for item in packed:
                stats_list.append(_simulate_packed(item))
                if progress is not None:
                    progress.update(1)
        else:
            # Workers profile into their own PROFILER (discarded unless
            # a run is active, in which case each worker writes its own
            # spans); this section times the dispatch + result
            # collection layer.
            chunksize = max(1, len(packed) // (workers * 4))
            with PROFILER.section("harness.parallel_batch"):
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    stats_list = []
                    for stats in pool.map(_simulate_packed, packed,
                                          chunksize=chunksize):
                        stats_list.append(stats)
                        if progress is not None:
                            progress.update(1)
        if progress is not None:
            progress.finish()
        if ledger is not None and ordered:
            # Live per-cell walls live in the workers; flag stragglers
            # post-hoc from the ledger they appended to.
            ledger_mod.flag_stragglers(ledger)

        by_identity = {identity: stats for (identity, _), stats
                       in zip(ordered, stats_list)}
        return [by_identity[cell.identity(self.scale)] for cell in resolved]

    def run_grid(self, workloads: Sequence[str],
                 configs: Sequence[FrontEndConfig],
                 seeds: Sequence[int] = (0,),
                 bolted: bool = False) -> dict[tuple, SimStats]:
        """The full cartesian product, keyed by (workload, seed, index).

        ``index`` is the position of the config in ``configs`` (configs
        themselves are not hashable dict keys).
        """
        cells = [Cell(workload, config, seed, bolted)
                 for workload in workloads
                 for index, config in enumerate(configs)
                 for seed in seeds]
        stats = self.run_batch(cells)
        out: dict[tuple, SimStats] = {}
        position = 0
        for workload in workloads:
            for index, _ in enumerate(configs):
                for seed in seeds:
                    out[(workload, seed, index)] = stats[position]
                    position += 1
        return out
