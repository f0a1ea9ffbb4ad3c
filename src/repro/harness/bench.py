"""Benchmark trajectory: measure, persist, compare.

``repro bench run`` times a fixed grid of simulation cells and writes a
schema-versioned ``BENCH_<YYYYMMDD>.json`` at the repository root:
simulation throughput (records and simulated cycles per host second),
per-figure runtime, decode-cache and result-store hit rates, and the
per-section rollup of the host-side profiler spans
(:mod:`repro.obs.profiler`).  ``repro bench
compare`` diffs two such files against configurable thresholds and exits
non-zero on regression -- CI gates on it, and the checked-in
``benchmarks/baseline_smoke.json`` is the blessed reference point.

Methodology
-----------
The run is two-phase over a *private* temporary result store (the user's
``.repro_cache`` is never consulted, so numbers always reflect fresh
simulation):

1. **cold** -- every cell simulates; per-figure wall-clock and the
   throughput figures come from this phase;
2. **warm** -- the same grid replays out of the just-filled store; its
   wall-clock and hit rate characterise the store read path.

Throughput numbers are machine-specific: a baseline blessed on one host
gates only runs on comparable hosts (see ``docs/performance.md`` for the
blessing workflow and why the checked-in baseline carries headroom).
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import tempfile
import time
from pathlib import Path
from typing import Mapping, Sequence

from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.harness.parallel import Cell
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import Scale
from repro.harness.store import ResultStore
from repro.obs.profiler import PROFILER, span_row
from repro.obs.spans import span_rollup
from repro.workloads.cache import WorkloadCache
from repro.workloads.compiled import batch_enabled, fastforward_enabled

#: Bump when the payload shape changes; ``compare`` refuses to diff
#: files with mismatched schema versions.
BENCH_SCHEMA_VERSION = 1

#: Workloads of the fixed bench grid: one high-gain OLTP workload, one
#: mid-gain one, and the no-op control (near-zero front-end pressure).
DEFAULT_BENCH_WORKLOADS = ("voter", "tatp", "noop")

#: Default throughput regression gate (percent drop in records/sec).
DEFAULT_THRESHOLD_PCT = 25.0

DEFAULT_BASELINE = Path("benchmarks") / "baseline_smoke.json"


def bench_grid(workloads: Sequence[str] | None = None
               ) -> dict[str, list[Cell]]:
    """The fixed cell grid, grouped by the figure family it exercises."""
    workloads = tuple(workloads or DEFAULT_BENCH_WORKLOADS)
    base = FrontEndConfig()
    skia = FrontEndConfig(skia=SkiaConfig())
    head = FrontEndConfig(skia=SkiaConfig(decode_tails=False))
    tail = FrontEndConfig(skia=SkiaConfig(decode_heads=False))
    return {
        "fig14_grid": [Cell(workload, config)
                       for workload in workloads
                       for config in (base, skia, head, tail)],
        "fig3_btb_sweep": [Cell(workloads[0], base.with_btb_entries(n))
                           for n in (4096, 16384)],
    }


def _hit_rate(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def _decode_cache_rates(runner: ExperimentRunner,
                        cells: Sequence[Cell]) -> dict[str, float]:
    """Aggregate SBD cache hit rates over the grid's Skia cells."""
    sums: dict[str, float] = {}
    for cell in cells:
        if not cell.config.skia.enabled:
            continue
        metrics = runner.metrics_for(cell.workload, cell.config,
                                     bolted=cell.bolted)
        if not metrics:
            continue
        for key, value in metrics.items():
            if key.startswith("sbd."):
                sums[key] = sums.get(key, 0.0) + value
    rates = {}
    for cache in ("head_memo", "tail_memo", "line_cache"):
        rates[f"sbd_{cache}_hit_rate"] = _hit_rate(
            sums.get(f"sbd.{cache}.hits", 0.0),
            sums.get(f"sbd.{cache}.misses", 0.0))
    return rates


#: The phase-5 fast-forward cell: a workload whose trace is exactly
#: periodic (round-robin dispatch, no stochastic branches), replayed
#: over far more records than the grid cells so skipped whole periods
#: dominate the wall clock.
FASTFORWARD_WORKLOAD = "steady-stream"


def _bench_fastforward(scale: Scale, repeats: int = 3) -> dict:
    """Time one long periodic cell with fast-forwarding on and off.

    Walls are min-of-``repeats`` in one process (warm caches, so the
    ratio is immune to cold-start noise); the trace/program build is
    excluded from both.  Returns the ``fastforward`` payload section.
    """
    from repro.frontend.engine import FrontEndSimulator
    from repro.workloads.cache import WorkloadCache

    records = max(scale.records * 8, 48_000)
    warmup = max(min(scale.warmup, records // 12), 256)
    out = {
        "enabled": fastforward_enabled(),
        "workload": FASTFORWARD_WORKLOAD,
        "records": records,
        "warmup": warmup,
    }
    if not out["enabled"]:
        return out
    cache = WorkloadCache()
    program = cache.program(FASTFORWARD_WORKLOAD, seed=0)
    compiled = cache.compiled(FASTFORWARD_WORKLOAD, records, seed=0)

    def _wall() -> tuple[float, dict | None]:
        simulator = FrontEndSimulator(program, FrontEndConfig(), seed=0)
        start = time.perf_counter()
        simulator.run_compiled(compiled, warmup=warmup)
        return (time.perf_counter() - start,
                getattr(simulator, "fastforward_summary", None))

    previous = os.environ.get("REPRO_FASTFORWARD")
    try:
        os.environ["REPRO_FASTFORWARD"] = "1"
        on_runs = [_wall() for _ in range(repeats)]
        os.environ["REPRO_FASTFORWARD"] = "0"
        off_runs = [_wall() for _ in range(repeats)]
    finally:
        if previous is None:
            os.environ.pop("REPRO_FASTFORWARD", None)
        else:
            os.environ["REPRO_FASTFORWARD"] = previous
    on_wall = min(wall for wall, _ in on_runs)
    off_wall = min(wall for wall, _ in off_runs)
    summary = on_runs[0][1] or {}
    out.update({
        "on_wall_s": round(on_wall, 4),
        "off_wall_s": round(off_wall, 4),
        "speedup": round(off_wall / on_wall, 3) if on_wall else 0.0,
        "period": summary.get("period"),
        "probes": summary.get("probes"),
        "skipped_records": summary.get("skipped_records"),
    })
    return out


def run_bench(scale: Scale, workloads: Sequence[str] | None = None,
              jobs: int = 1, out: str | os.PathLike | None = None,
              ) -> tuple[dict, Path]:
    """Run the bench grid at ``scale``; write and return the payload."""
    from repro.frontend.plan import reason_counts

    figures = bench_grid(workloads)
    all_cells = [cell for cells in figures.values() for cell in cells]

    was_enabled = PROFILER.enabled
    PROFILER.enabled = True
    # The payload's profiler block rolls up the spans from here on,
    # whether or not a run ledger is also writing them to its file.
    first_span = len(PROFILER.spans)
    fallbacks_before = reason_counts("kernel")
    try:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            # Phase 1: cold — every cell is fresh simulation.  The cold
            # runner gets a private WorkloadCache so trace generation and
            # compilation are measured from scratch: ``trace.compile``
            # fires exactly once per workload per bench run regardless of
            # what the process did beforehand.
            cold_cache = WorkloadCache()
            cold_runner = ExperimentRunner(scale=scale, cache=cold_cache,
                                           store=ResultStore(tmp))
            figure_out: dict[str, dict] = {}
            total_cycles = 0.0
            cold_wall = 0.0
            # Compiled-trace cache accounting is *per figure group*: a
            # cumulative rate would blend fig14's unavoidable first-touch
            # compilations (all misses) with fig3's perfect reuse of the
            # same traces, reading as poor reuse (e.g. 0.25) when reuse
            # is in fact total.
            compiled_counts = cold_cache.stats()["compiled"]
            prev_hits = compiled_counts.hits
            prev_misses = compiled_counts.misses
            for name, cells in figures.items():
                start = time.perf_counter()
                stats_list = cold_runner.run_cells(cells, jobs=jobs)
                seconds = time.perf_counter() - start
                cold_wall += seconds
                total_cycles += sum(stats.cycles for stats in stats_list)
                compiled_counts = cold_cache.stats()["compiled"]
                phase_hits = compiled_counts.hits - prev_hits
                phase_misses = compiled_counts.misses - prev_misses
                prev_hits = compiled_counts.hits
                prev_misses = compiled_counts.misses
                figure_out[name] = {
                    "seconds": round(seconds, 4),
                    "cells": len(cells),
                    "compiled_trace_hits": phase_hits,
                    "compiled_trace_misses": phase_misses,
                    "compiled_trace_hit_rate": round(
                        _hit_rate(phase_hits, phase_misses), 6),
                }
            cache_rates = _decode_cache_rates(cold_runner, all_cells)
            compiled_stats = cold_cache.stats()["compiled"]

            # Phase 2: warm — the grid replays out of the filled store.
            warm_store = ResultStore(tmp)
            warm_runner = ExperimentRunner(scale=scale, store=warm_store)
            start = time.perf_counter()
            warm_runner.run_cells(all_cells, jobs=1)
            warm_wall = time.perf_counter() - start

            # Phase 3: kernel comparison — the Figure-14 grid replayed
            # with the batched lane kernel on and off, over the traces
            # phase 1 already built (store disabled, fresh memo each
            # time), so the ratio isolates replay-loop cost from trace
            # generation/compilation.
            batch_out = {"enabled": batch_enabled()}
            grid = figures["fig14_grid"]
            grid_records = scale.records * len(grid)

            def _grid_wall() -> float:
                runner = ExperimentRunner(scale=scale, cache=cold_cache,
                                          store=None)
                start = time.perf_counter()
                runner.run_cells(grid, jobs=1)
                return time.perf_counter() - start

            previous = os.environ.get("REPRO_BATCH")
            try:
                os.environ["REPRO_BATCH"] = "1"
                batched_wall = _grid_wall()
                os.environ["REPRO_BATCH"] = "0"
                unbatched_wall = _grid_wall()
            finally:
                if previous is None:
                    os.environ.pop("REPRO_BATCH", None)
                else:
                    os.environ["REPRO_BATCH"] = previous
            batch_out.update({
                "batched_wall_s": round(batched_wall, 4),
                "unbatched_wall_s": round(unbatched_wall, 4),
                "batched_records_per_sec": round(
                    grid_records / batched_wall, 2),
                "unbatched_records_per_sec": round(
                    grid_records / unbatched_wall, 2),
                "speedup": round(unbatched_wall / batched_wall, 3),
            })

            # Phase 4: interval-telemetry overhead — the Figure-14 grid
            # replayed with per-window telemetry on and off, over the
            # traces phase 1 already built (store disabled, fresh memo
            # each time).  The on-grid swaps each config for its
            # interval_size=N variant; disabled telemetry is a single
            # None-check per record, so the ratio should stay ~1.
            interval_window = max(scale.records // 10, 1)
            plain_grid = figures["fig14_grid"]
            interval_grid = [
                Cell(cell.workload,
                     dataclasses.replace(cell.config,
                                         interval_size=interval_window),
                     bolted=cell.bolted)
                for cell in plain_grid]

            def _cells_wall(cells: Sequence[Cell]) -> float:
                runner = ExperimentRunner(scale=scale, cache=cold_cache,
                                          store=None)
                start = time.perf_counter()
                runner.run_cells(cells, jobs=1)
                return time.perf_counter() - start

            enabled_wall = _cells_wall(interval_grid)
            disabled_wall = _cells_wall(plain_grid)
            intervals_out = {
                "window": interval_window,
                "enabled_wall_s": round(enabled_wall, 4),
                "disabled_wall_s": round(disabled_wall, 4),
                "overhead_factor": (round(enabled_wall / disabled_wall, 3)
                                    if disabled_wall else 0.0),
            }

            # Phase 5: cycle fast-forward — one long periodic cell
            # (the steady-stream workload's trace repeats exactly, so
            # the fast-forward layer skips almost all of it) replayed
            # with REPRO_FASTFORWARD on and off, min of 3 each.  The
            # trace is deliberately longer than the grid cells and the
            # warm-up short: skippable whole periods, not detection
            # cost, must dominate for the measured speedup to reflect
            # the layer (CI gates this cell at >= 5x).
            fastforward_out = _bench_fastforward(scale)
    finally:
        profiler_sections = span_rollup(
            map(span_row, PROFILER.spans[first_span:]))
        PROFILER.enabled = was_enabled

    # Kernel fallbacks this bench run caused, keyed by reason (delta
    # over the process-wide counts).  The fig14 comparison phase runs
    # run_compiled by choice via REPRO_BATCH=0, which the engine plan
    # never counts, so any count here is a genuine degradation (e.g.
    # an attached sink).
    fallbacks_after = reason_counts("kernel")
    batch_out["object_path_fallbacks"] = {
        reason: count - fallbacks_before.get(reason, 0)
        for reason, count in sorted(fallbacks_after.items())
        if count - fallbacks_before.get(reason, 0)
    }

    total_records = scale.records * len(all_cells)
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scale": scale.name,
        "records_per_cell": scale.records,
        "cells": len(all_cells),
        "workloads": list(workloads or DEFAULT_BENCH_WORKLOADS),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "jobs": jobs,
        },
        "throughput": {
            "records_per_sec": round(total_records / cold_wall, 2),
            "cycles_per_sec": round(total_cycles / cold_wall, 2),
            "cold_wall_s": round(cold_wall, 4),
            "warm_wall_s": round(warm_wall, 4),
        },
        "figures": figure_out,
        # Additive since schema 1: batched-kernel vs per-record replay
        # of the Figure-14 grid (phase 3 above).
        "batch": batch_out,
        # Additive since schema 1: interval telemetry on/off over the
        # Figure-14 grid (phase 4 above).
        "intervals": intervals_out,
        # Additive since schema 1: cycle fast-forward on/off over one
        # long periodic cell (phase 5 above).
        "fastforward": fastforward_out,
        "caches": {
            **{key: round(value, 6)
               for key, value in cache_rates.items()},
            "store_hit_rate": round(
                _hit_rate(warm_store.hits, warm_store.misses), 6),
            "store_hits": warm_store.hits,
            "store_misses": warm_store.misses,
            # Additive since schema 1: cold-phase compiled-trace reuse.
            # One miss per distinct workload (the single compilation),
            # everything else hits.
            # Totals only; the meaningful hit *rates* are per figure
            # group (``figures.<name>.compiled_trace_hit_rate``), since
            # first-touch compilations all land in the first group.
            "compiled_trace_hits": compiled_stats.hits,
            "compiled_trace_misses": compiled_stats.misses,
        },
        "profiler": profiler_sections,
    }

    if out is None:
        out = Path(f"BENCH_{time.strftime('%Y%m%d')}.json")
    path = _write_atomic(Path(out), payload)
    return payload, path


def _write_atomic(path: Path, payload: Mapping) -> Path:
    """Write via ``<path>.tmp`` + rename (``make clean`` sweeps strays)."""
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)
    return path


def load_bench(path: str | os.PathLike) -> dict:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "schema_version" not in payload:
        raise ValueError(f"{path}: not a bench trajectory file")
    return payload


def latest_bench_file(root: str | os.PathLike = ".") -> Path | None:
    """The newest ``BENCH_*.json`` under ``root`` (date-named, so the
    lexicographic maximum; ties broken by mtime)."""
    candidates = sorted(Path(root).glob("BENCH_*.json"),
                        key=lambda p: (p.name, p.stat().st_mtime))
    return candidates[-1] if candidates else None


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

class BenchSchemaMismatch(ValueError):
    """Two bench files use different payload schemas.

    Not a performance regression: the files cannot be meaningfully
    diffed at all.  Carries both versions so callers can print a
    diagnostic (the CLI exits 2 with one) instead of either a spurious
    gate trip or a ``KeyError`` traceback from missing payload keys.
    """

    def __init__(self, before_schema, after_schema):
        self.before_schema = before_schema
        self.after_schema = after_schema
        super().__init__(
            f"bench schema mismatch: before={before_schema!r} "
            f"after={after_schema!r}")


def compare_bench(before: Mapping, after: Mapping,
                  threshold_pct: float = DEFAULT_THRESHOLD_PCT,
                  figure_threshold_pct: float | None = None,
                  ) -> tuple[list[str], list[str]]:
    """Diff two bench payloads.

    Returns ``(regressions, report_lines)``.  ``threshold_pct`` gates
    the cold-run throughput (records/sec); ``figure_threshold_pct``,
    when given, additionally gates each figure group's wall-clock.
    Hit-rate and profiler changes are reported but never gate (they are
    host-load sensitive).  Raises :class:`BenchSchemaMismatch` when the
    schema versions differ -- incomparable files are a usage error, not
    a regression.
    """
    regressions: list[str] = []
    lines: list[str] = []

    before_schema = before.get("schema_version")
    after_schema = after.get("schema_version")
    if before_schema != after_schema:
        raise BenchSchemaMismatch(before_schema, after_schema)

    if before.get("scale") != after.get("scale"):
        lines.append(f"note: comparing different scales "
                     f"({before.get('scale')} vs {after.get('scale')})")

    b_tp = float(before.get("throughput", {}).get("records_per_sec", 0.0))
    a_tp = float(after.get("throughput", {}).get("records_per_sec", 0.0))
    delta_pct = 100.0 * (a_tp - b_tp) / b_tp if b_tp else 0.0
    line = (f"throughput: {b_tp:.0f} -> {a_tp:.0f} records/sec "
            f"({delta_pct:+.1f}%)")
    if b_tp and a_tp < b_tp * (1.0 - threshold_pct / 100.0):
        regressions.append(
            f"{line}  REGRESSION (> {threshold_pct:.0f}% drop)")
        lines.append(regressions[-1])
    else:
        lines.append(line)

    b_figures = before.get("figures", {})
    a_figures = after.get("figures", {})
    for name in sorted(set(b_figures) | set(a_figures)):
        if name not in b_figures or name not in a_figures:
            lines.append(f"figure {name}: only in "
                         f"{'after' if name in a_figures else 'before'}")
            continue
        b_s = float(b_figures[name].get("seconds", 0.0))
        a_s = float(a_figures[name].get("seconds", 0.0))
        delta_pct = 100.0 * (a_s - b_s) / b_s if b_s else 0.0
        line = f"figure {name}: {b_s:.2f}s -> {a_s:.2f}s ({delta_pct:+.1f}%)"
        if (figure_threshold_pct is not None and b_s
                and a_s > b_s * (1.0 + figure_threshold_pct / 100.0)):
            regressions.append(
                f"{line}  REGRESSION (> {figure_threshold_pct:.0f}% slower)")
            lines.append(regressions[-1])
        else:
            lines.append(line)

    b_batch = before.get("batch", {}).get("speedup")
    a_batch = after.get("batch", {}).get("speedup")
    if b_batch is not None or a_batch is not None:
        # Reported, never gating here: the hard >= 2x floor lives in the
        # component-throughput benchmark job (see benchmarks/).
        lines.append(f"batch speedup: {b_batch} -> {a_batch}")

    b_iv = before.get("intervals", {}).get("overhead_factor")
    a_iv = after.get("intervals", {}).get("overhead_factor")
    if b_iv is not None or a_iv is not None:
        # Reported, never gating here: the hard <= 1.05x ceiling lives
        # in tests/obs/test_overhead.py.
        lines.append(f"interval telemetry overhead: {b_iv} -> {a_iv}")

    b_ff = before.get("fastforward", {}).get("speedup")
    a_ff = after.get("fastforward", {}).get("speedup")
    if b_ff is not None or a_ff is not None:
        # Reported, never gating here: the hard >= 5x floor lives in
        # the bench-trajectory CI job.
        lines.append(f"fast-forward speedup: {b_ff} -> {a_ff}")

    b_fallbacks = before.get("batch", {}).get("object_path_fallbacks")
    a_fallbacks = after.get("batch", {}).get("object_path_fallbacks")
    if b_fallbacks != a_fallbacks and (b_fallbacks or a_fallbacks):
        lines.append(f"kernel fallbacks: {b_fallbacks or {}} -> "
                     f"{a_fallbacks or {}}")

    b_caches = before.get("caches", {})
    a_caches = after.get("caches", {})
    for key in sorted(set(b_caches) | set(a_caches)):
        if not key.endswith("_hit_rate"):
            continue
        b_v, a_v = b_caches.get(key), a_caches.get(key)
        if b_v != a_v:
            lines.append(f"{key}: {b_v} -> {a_v}")

    return regressions, lines
