"""One benchmark run: cold repetitions of one workload at one seed.

Closed loop, one process, ``jobs=1``, no threads.  Each repetition
starts cold -- a fresh ``WorkloadCache``, cleared process-wide decode
tables, a fresh private ``ResultStore`` in a temporary directory under
``bench/.work`` and fresh ``ExperimentRunner`` objects -- and runs:

1. **set-up** (timed as ``setup_s``): program generation, trace
   generation, trace compile and period detection for every generated
   workload of the grid; for ``warm-replay`` also the store fill;
2. **grid** (timed for ``records_per_s``): the cold grid through
   ``run_cells`` (skipped for ``warm-replay``, whose set-up simulated
   it);
3. **replay**: passes over the grid from the warm store, each on a
   fresh runner (``run_cells`` plus ``metrics_for`` per cell, the way a
   figure is re-rendered), one timed sample per pass (reported as a
   median and tail; for ``warm-replay`` these passes are the timed
   phase behind ``records_per_s``);
4. **checks**, outside every timed interval: invariants on every
   snapshot, every later result against the first repetition and the
   cold results, and (in the first repetition) the oracle replay.

Repetitions continue while the next one fits in ``seconds``, and there
are at least :data:`MIN_REPETITIONS`.  Host-time metrics are medians,
scaled to the baseline machine's speed by probes around each timed step
(:func:`timed_steps`).

With ``trace`` set the run alternates untraced and traced repetitions
(both with the oracle check) and reports per-layer metrics from the
traced ones; the end-to-end metrics come from untraced runs.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import random
import resource
import statistics
import tempfile
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    INSTRUMENTATION_SCOPES,
    CellLedger,
    cell_problems,
    fastforward_disabled,
    stats_digest,
)
from grids import Workload, config_label
from repro.core import decode_tables
from repro.frontend.batch import run_compiled_batched
from repro.frontend.engine import FrontEndSimulator
from repro.frontend.stats import SimStats
from repro.harness.runner import ExperimentRunner
from repro.harness.store import ResultStore
from repro.workloads.cache import WorkloadCache
from repro.workloads.profiles import WORKLOAD_NAMES, get_profile
from tracer import Breakdown, Tracer, breakdown

clock = time.perf_counter_ns

MIN_REPETITIONS = 3
MAX_REPETITIONS = 40

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10

#: Traced self times plus the explicit remainder must match each
#: repetition's wall time within this share.
SUM_TOLERANCE = 0.01

WORK_DIR = Path(__file__).resolve().parent / ".work"

#: name -> (unit, better).  With ``trace`` off a run reports exactly
#: these, and BENCHMARK.json lists them as ``end_to_end``.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "records_per_s": ("records/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Span names whose self time is reported as ``<name>_s``.
SPAN_LAYERS = (
    "workloads.program", "workloads.trace", "workloads.compile",
    "workloads.period", "frontend.simulator_init", "frontend.add_lane",
    "frontend.kernel", "frontend.metrics_snapshot",
    "obs.attribution_attach", "obs.attribution_export",
)

#: Structure operations reported as ``<op>.calls`` and ``<op>.ns_per_op``.
STRUCTURE_OPS = (
    "frontend.btb.lookup", "frontend.btb.insert",
    "frontend.caches.access", "frontend.caches.fill",
    "frontend.tage.update", "frontend.ittage.update",
    "frontend.ras.push", "frontend.ras.pop",
    "core.sbd.decode_head", "core.sbd.decode_tail",
    "core.sbb.lookup", "core.sbb.insert",
)

#: Operations reported as ``<name>_s`` (self time per repetition).
TIMED_OPS = (
    "obs.trace_emit", "obs.attribution_observe", "harness.store_key",
    "harness.store_get", "harness.store_put", "harness.metrics_for",
)

#: Exact model metrics: simulated results, identical on every host.
MODEL = {
    "model.ipc": ("IPC", "higher"),
    "model.ipc_gain_pct": ("%", "higher"),
    "model.btb_mpki": ("MPKI", "lower"),
    "model.l1i_mpki": ("MPKI", "lower"),
    "model.resteers_pki": ("PKI", "lower"),
    "model.decoder_idle_frac": ("frac", "lower"),
}


def _per_layer_spec() -> dict[str, tuple[str, str]]:
    spec = {f"{name}_s": ("s", "lower") for name in SPAN_LAYERS}
    spec.update({
        "frontend.kernel_ns_per_record": ("ns", "lower"),
        "frontend.kernel_stepped_records": ("count", "lower"),
        "frontend.fastforward_skipped_frac": ("frac", "higher"),
        "frontend.fastforward_probes": ("count", "lower"),
        "frontend.fastforward_engaged_lanes": ("count", "higher"),
        "frontend.run_compiled_s": ("s", "lower"),
        "frontend.engine_self_s": ("s", "lower"),
        "frontend.btb_hit_rate": ("frac", "higher"),
    })
    for op in STRUCTURE_OPS:
        spec[f"{op}.calls"] = ("count", "lower")
        spec[f"{op}.ns_per_op"] = ("ns", "lower")
    spec.update({f"{name}_s": ("s", "lower") for name in TIMED_OPS})
    spec.update({
        "obs.trace_emit_calls": ("count", "lower"),
        "harness.store_gets": ("count", "lower"),
        "harness.store_puts": ("count", "lower"),
        "harness.run_cells_self_s": ("s", "lower"),
        "bench.self_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
        "trace.overhead_frac": ("frac", "lower"),
        "core.sbd.head_memo_hit_rate": ("frac", "higher"),
        "core.sbd.tail_memo_hit_rate": ("frac", "higher"),
        "core.sbd.line_cache_hit_rate": ("frac", "higher"),
        "core.sbb_useful_frac": ("frac", "higher"),
    })
    spec.update(MODEL)
    return spec


#: name -> (unit, better).  With ``trace`` on a run reports exactly
#: these, and BENCHMARK.json lists them as ``per_layer``.
PER_LAYER = _per_layer_spec()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples."""
    return max(1, math.ceil(round(n * q / 100.0, 9)))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in (0, 100])."""
    return sorted(samples)[_rank(len(samples), q) - 1]


def beyond(n: int, q: float) -> int:
    """Samples above the nearest-rank ``q``-th percentile of ``n``."""
    return n - _rank(n, q)


def tail_percentile(samples: list[float],
                    ladder=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
                    ) -> tuple[float, float] | None:
    """``(q, value)`` for the highest ``q`` in ``ladder`` that leaves at
    least :data:`TAIL_MIN_BEYOND` samples beyond it, or None."""
    for q in ladder:
        if beyond(len(samples), q) >= TAIL_MIN_BEYOND:
            return q, percentile(samples, q)
    return None


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: Median wall time of one reference-loop pass on the machine the first
#: baseline was recorded on (2-vCPU x86_64 VM, CPython 3.11.7).
REFERENCE_NS = 20_000_000

#: Timed replay passes between two host-speed probes.
PASSES_PER_PROBE = 10


def reference_buffer() -> bytearray:
    """The 8 MiB table :func:`reference_ns` reads (allocate once per run)."""
    return bytearray(range(256)) * (1 << 15)


def reference_ns(buffer: bytearray, passes: int = 3) -> float:
    """Median wall time of ``passes`` runs of the host-speed reference
    loop: pseudo-random reads over an 8 MiB table plus dict inserts and
    deletes, interpreter work of the simulator's kind that no change to
    ``src/`` can speed up."""
    times = []
    size = len(buffer)
    # The loop creates no reference cycles; with the collector on, a
    # full collection of the program's heap could land inside a pass.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(passes):
            start = clock()
            table: dict[int, int] = {}
            state = 12345
            total = 0
            for index in range(60_000):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                total += buffer[state % size]
                key = state & 0xFFFF
                if table.get(key) is None:
                    table[key] = index
                else:
                    del table[key]
            times.append(clock() - start)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times)


def timed_steps(steps, buffer: bytearray) -> list[tuple[int, float]]:
    """Run ``steps`` in order and return each one's ``(wall ns,
    slowdown)``.

    The host is probed with :func:`reference_ns` before the first step,
    between steps and after the last.  A step's slowdown is the mean of
    the probes on either side over :data:`REFERENCE_NS`, and its wall
    time divided by that slowdown is what it would have taken at the
    baseline machine's speed.  Short steps keep the probes close to the
    work they adjust: the host's speed drifts within seconds.
    """
    out = []
    before = reference_ns(buffer)
    for step in steps:
        start = clock()
        step()
        elapsed = clock() - start
        after = reference_ns(buffer)
        out.append((elapsed, (before + after) / 2 / REFERENCE_NS))
        before = after
    return out


def _adjusted_ns(timings: list[tuple[int, float]]) -> float:
    return sum(ns / slowdown for ns, slowdown in timings)


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------

@dataclass
class Repetition:
    wall_ns: int
    #: ``(wall ns, slowdown)`` of the set-up; of each generated
    #: workload's part of the cold grid (empty when the set-up simulated
    #: the grid, ``store_fill``); and of each replay pass.
    setup: tuple[int, float]
    grid: list[tuple[int, float]]
    replay: list[tuple[int, float]]
    stats: list[SimStats]
    metrics: list[dict]
    traced: bool
    oracle_ns: int = 0
    lanes: list[dict] = field(default_factory=list)

    @property
    def loop_ns(self) -> int:
        """Wall time a further repetition of this kind would take."""
        return self.wall_ns - self.oracle_ns


@contextmanager
def _untraced(_name: str):
    yield


def _label(cell, suffix: str = "") -> str:
    return f"{cell.workload}/{config_label(cell.config)}{suffix}"


def _metrics_of(runner: ExperimentRunner, cells) -> list[dict]:
    return [runner.metrics_for(cell.workload, cell.config) for cell in cells]


def repetition(workload: Workload, seed: int, ledger: CellLedger,
               reference: Repetition | None, buffer: bytearray,
               tracer: Tracer | None = None, rep: int = 0,
               oracle: bool = False) -> Repetition:
    gc.collect()
    decode_tables.reset()
    cache = WorkloadCache()
    scale = workload.scale
    cells = list(workload.cells)
    names = workload.workload_names()
    program_seed = workload.program_seed(seed)
    phase = tracer.span if tracer is not None else _untraced
    WORK_DIR.mkdir(exist_ok=True)
    grid: list[tuple[int, float]] = []
    stats: list = [None] * len(cells)
    oracle_ns = 0
    start = clock()
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.repetition(rep))
        store = ResultStore(stack.enter_context(
            tempfile.TemporaryDirectory(dir=WORK_DIR)))

        def runner() -> ExperimentRunner:
            return ExperimentRunner(scale=scale, seed=program_seed,
                                    cache=cache, store=store, jobs=1,
                                    record_attribution=workload.attribution)

        def simulate(grid_runner: ExperimentRunner, name: str) -> None:
            # run_cells groups cells by workload anyway; one call per
            # workload runs the same work with a probe between groups.
            indices = [i for i, cell in enumerate(cells)
                       if cell.workload == name]
            results = grid_runner.run_cells([cells[i] for i in indices])
            for index, result in zip(indices, results):
                stats[index] = result

        def setup() -> None:
            for name in names:
                cache.program(name, seed=program_seed)
                cache.trace(name, scale.records, seed=program_seed)
                cache.compiled(name, scale.records,
                               seed=program_seed).period()
            if workload.store_fill:
                for name in names:
                    simulate(grid_runner, name)

        grid_runner = runner()
        with phase("bench.setup"):
            [setup_timing] = timed_steps([setup], buffer)
        if not workload.store_fill:
            with phase("bench.grid"):
                grid = timed_steps(
                    [lambda name=name: simulate(grid_runner, name)
                     for name in names], buffer)
        metrics = _metrics_of(grid_runner, cells)
        del grid_runner
        with phase("bench.check"):
            for index, cell in enumerate(cells):
                ledger.record(_label(cell), cell_problems(
                    stats[index], metrics[index],
                    None if reference is None else reference.stats[index],
                    None if reference is None else reference.metrics[index]))
        with phase("bench.replay"):
            replay = _replay(workload, runner, cells, stats, metrics,
                             ledger, buffer)
        if oracle:
            with phase("bench.oracle"):
                oracle_start = clock()
                _oracle(workload, seed, cache, stats, metrics, ledger)
                oracle_ns = clock() - oracle_start
    wall_ns = clock() - start
    lanes = []
    if tracer is not None:
        lanes = [dict(simulator.fastforward_summary or {}, records=n)
                 for simulator, n in tracer.take_lanes()]
    return Repetition(wall_ns, setup_timing, grid, replay, stats, metrics,
                      tracer is not None, oracle_ns, lanes)


def _replay(workload: Workload, runner, cells, stats, metrics,
            ledger: CellLedger, buffer: bytearray
            ) -> list[tuple[int, float]]:
    """Warm-store passes over the grid, one fresh runner and one timed
    sample each, probed for host speed every :data:`PASSES_PER_PROBE`
    passes; results are checked after each pass's clock stops."""
    blocks: list[list[int]] = []

    def block(passes: int) -> None:
        samples = []
        for _ in range(passes):
            start = clock()
            replayer = runner()
            replayed = replayer.run_cells(cells)
            replayed_metrics = _metrics_of(replayer, cells)
            samples.append(clock() - start)
            for index, cell in enumerate(cells):
                ledger.record(_label(cell, " replay"), cell_problems(
                    replayed[index], replayed_metrics[index], stats[index],
                    metrics[index]))
        blocks.append(samples)

    sizes = [min(PASSES_PER_PROBE, workload.replay_passes - first)
             for first in range(0, workload.replay_passes, PASSES_PER_PROBE)]
    timings = timed_steps([lambda size=size: block(size) for size in sizes],
                          buffer)
    return [(ns, slowdown) for samples, (_, slowdown) in zip(blocks, timings)
            for ns in samples]


def _oracle(workload: Workload, seed: int, cache: WorkloadCache,
            stats, metrics, ledger: CellLedger) -> None:
    """Recompute one seed-chosen cell per generated workload on each of
    ``workload.oracles`` and require results identical to the grid's."""
    scale = workload.scale
    cells = list(workload.cells)
    program_seed = workload.program_seed(seed)
    rng = random.Random(seed)
    for name in workload.workload_names():
        index = rng.choice([i for i, cell in enumerate(cells)
                            if cell.workload == name])
        cell = cells[index]
        compiled = cache.compiled(name, scale.records, seed=program_seed)
        program = cache.program(name, seed=program_seed)
        for engine in workload.oracles:
            simulator = FrontEndSimulator(program, cell.config,
                                          seed=program_seed)
            if engine == "object":
                result = simulator.run_compiled(compiled,
                                                warmup=scale.warmup)
            elif engine == "kernel":
                result = run_compiled_batched(simulator, compiled,
                                              warmup=scale.warmup)
            else:
                with fastforward_disabled():
                    result = run_compiled_batched(simulator, compiled,
                                                  warmup=scale.warmup)
            ledger.record(_label(cell, f" {engine}"), cell_problems(
                result, simulator.metrics_snapshot(), stats[index],
                metrics[index], ignore=INSTRUMENTATION_SCOPES))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def model_metrics(workload: Workload, stats: list[SimStats]
                  ) -> tuple[dict[str, float], dict]:
    """Exact simulated metrics over the grid, and the Fig-14 gain table.

    Means over the grid's cells; the IPC gain is skia (head+tail) over
    base per generated workload.  The gain table carries the paper's
    Figure-14 value for the workloads that have one.
    """
    n = len(stats)
    by_label = {(cell.workload, config_label(cell.config)): item
                for cell, item in zip(workload.cells, stats)}
    gains = {}
    for name in workload.workload_names():
        gain = 100.0 * (by_label[(name, "skia")].ipc
                        / by_label[(name, "base")].ipc - 1.0)
        gains[name] = {"simulated_pct": gain,
                       "paper_pct": get_profile(name).expected.ipc_gain_pct
                       if name in WORKLOAD_NAMES else None}
    model = {
        "model.ipc": sum(item.ipc for item in stats) / n,
        "model.ipc_gain_pct": (sum(row["simulated_pct"]
                                   for row in gains.values()) / len(gains)),
        "model.btb_mpki": sum(item.btb_miss_mpki for item in stats) / n,
        "model.l1i_mpki": sum(item.l1i_mpki for item in stats) / n,
        "model.resteers_pki": sum(
            item.mpki(item.decode_resteers + item.exec_resteers)
            for item in stats) / n,
        "model.decoder_idle_frac": sum(
            _ratio(item.decoder_idle_cycles, item.cycles)
            for item in stats) / n,
    }
    return model, gains


def _ratios(metrics: list[dict], stats: list[SimStats]) -> dict[str, float]:
    def total(key: str) -> float:
        return sum(snapshot.get(key, 0) for snapshot in metrics)

    out = {"frontend.btb_hit_rate": _ratio(total("btb.hits"),
                                           total("btb.lookups"))}
    for cache in ("head_memo", "tail_memo", "line_cache"):
        hits = total(f"sbd.{cache}.hits")
        out[f"core.sbd.{cache}_hit_rate"] = _ratio(
            hits, hits + total(f"sbd.{cache}.misses"))
    out["core.sbb_useful_frac"] = _ratio(
        sum(item.total_sbb_hits for item in stats),
        sum(item.total_sbb_insertions for item in stats))
    return out


def _count(total: int, reps: int):
    return total // reps if total % reps == 0 else total / reps


def layer_metrics(parts: Breakdown, reps: int, lanes: list[dict],
                  overhead_frac: float) -> dict[str, float]:
    """Host-time per-layer metrics per traced repetition."""
    def seconds(ns: float) -> float:
        return ns / reps / 1e9

    out = {f"{name}_s": seconds(parts.span_self.get(name, 0.0))
           for name in SPAN_LAYERS}
    records = sum(lane["records"] for lane in lanes)
    skipped = sum(lane.get("skipped_records", 0) for lane in lanes)
    stepped = records - skipped
    out.update({
        "frontend.kernel_ns_per_record": _ratio(
            parts.span_inclusive.get("frontend.kernel", 0.0), stepped),
        "frontend.kernel_stepped_records": _count(stepped, reps),
        "frontend.fastforward_skipped_frac": _ratio(skipped, records),
        "frontend.fastforward_probes": _count(
            sum(lane.get("probes", 0) for lane in lanes), reps),
        "frontend.fastforward_engaged_lanes": _count(
            sum(1 for lane in lanes if lane.get("engaged")), reps),
        "frontend.run_compiled_s": seconds(
            parts.span_inclusive.get("frontend.run_compiled", 0.0)),
        "frontend.engine_self_s": seconds(
            parts.span_self.get("frontend.run_compiled", 0.0)),
    })
    for op in STRUCTURE_OPS:
        calls = parts.op_calls.get(op, 0)
        out[f"{op}.calls"] = _count(calls, reps)
        out[f"{op}.ns_per_op"] = _ratio(parts.op_self.get(op, 0.0), calls)
    for op in TIMED_OPS:
        out[f"{op}_s"] = seconds(parts.op_self.get(op, 0.0))
    out.update({
        "obs.trace_emit_calls": _count(
            parts.op_calls.get("obs.trace_emit", 0), reps),
        "harness.store_gets": _count(
            parts.op_calls.get("harness.store_get", 0), reps),
        "harness.store_puts": _count(
            parts.op_calls.get("harness.store_put", 0), reps),
        "harness.run_cells_self_s": seconds(
            parts.span_self.get("harness.run_cells", 0.0)),
        "bench.self_s": seconds(sum(
            value for name, value in parts.span_self.items()
            if name.startswith("bench."))),
        "trace.overhead_s": seconds(parts.overhead),
        "trace.overhead_frac": overhead_frac,
    })
    return out


def layer_table(parts: Breakdown, reps: int) -> dict[str, dict]:
    """Every span and op self time per repetition, for the report."""
    table = {name: {"self_s": value / reps / 1e9, "kind": "span",
                    "count": _count(parts.span_count[name], reps)}
             for name, value in sorted(parts.span_self.items())}
    for name, value in sorted(parts.op_self.items()):
        table[name] = {"self_s": value / reps / 1e9, "kind": "op",
                       "count": _count(parts.op_calls[name], reps)}
    table["trace.overhead"] = {"self_s": parts.overhead / reps / 1e9,
                               "kind": "tracing"}
    return table


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------

def _enough(reps: list[Repetition], seconds: float, started: int,
            trace: bool) -> bool:
    """Stop once the minimum is met and another round would overrun."""
    if len(reps) >= MAX_REPETITIONS:
        return True
    elapsed = clock() - started
    if trace:
        if len(reps) % 2:
            return False
        upcoming = reps[-1].wall_ns + reps[-2].wall_ns
    else:
        if len(reps) < MIN_REPETITIONS:
            return False
        upcoming = statistics.median(rep.loop_ns for rep in reps)
    return elapsed + upcoming > seconds * 1e9


def run(workload: Workload, seed: int, seconds: float, trace: bool
        ) -> tuple[dict, dict, Tracer | None]:
    """Run ``workload`` once; returns ``(result, report, tracer)``.

    ``result`` is the driver-contract object (``correct``,
    ``attempted``, ``failed``, ``metrics``); ``report`` adds sample
    counts, digests, the Fig-14 gain table, layer tables and host info.
    """
    ledger = CellLedger()
    tracer = Tracer() if trace else None
    buffer = reference_buffer()
    problems: list[str] = []
    reps: list[Repetition] = []
    started = clock()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(repetition(
            workload, seed, ledger, reps[0] if reps else None, buffer,
            tracer=tracer if traced else None, rep=len(reps),
            oracle=trace or not reps))
        if _enough(reps, seconds, started, trace):
            break
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass

    digests = sorted({stats_digest(rep.stats) for rep in reps})
    if len(digests) != 1:
        problems.append(f"repetitions disagree: {len(digests)} digests")
    model, gains = model_metrics(workload, reps[0].stats)
    paper = [abs(row["simulated_pct"] - row["paper_pct"])
             for row in gains.values() if row["paper_pct"] is not None]
    report: dict = {
        "workload": workload.name,
        "seed": seed,
        "program_seed": workload.program_seed(seed),
        "held_out_seed": workload.program_seed(seed) != 0,
        "trace": trace,
        "scale": {"records": workload.scale.records,
                  "warmup": workload.scale.warmup,
                  "cells": len(workload.cells)},
        "stats_digest": digests[0],
        "model": model,
        "ipc_gain": gains,
        "ipc_gain_err_pp": sum(paper) / len(paper) if paper else None,
        "host": host_info(),
    }
    if trace:
        metrics = _traced_metrics(reps, tracer, model, report, problems)
        specs = PER_LAYER
    else:
        metrics = _end_to_end(workload, reps, report)
        specs = END_TO_END
    report["metrics"] = {name: {"value": value, "unit": specs[name][0]}
                         for name, value in metrics.items()}
    report["cells_total"] = ledger.checked
    report["cells_failed"] = ledger.failed
    report["failures"] = ledger.failures + problems
    result = {
        "correct": ledger.failed == 0 and not problems,
        "attempted": ledger.checked,
        "failed": ledger.failed,
        "metrics": report["metrics"],
    }
    return result, report, tracer


def _end_to_end(workload: Workload, reps: list[Repetition],
                report: dict) -> dict[str, float]:
    """Host-time metrics at baseline host speed (see :func:`timed_steps`);
    the report keeps the wall-clock values under ``unadjusted``."""
    replay = [timing for rep in reps for timing in rep.replay]
    replay_ns = [ns for ns, _ in replay]
    if workload.store_fill:
        rates = [workload.grid_records / (ns / 1e9) for ns in replay_ns]
        adjusted = [workload.grid_records * slowdown / (ns / 1e9)
                    for ns, slowdown in replay]
    else:
        rates = [workload.grid_records / (sum(ns for ns, _ in rep.grid) / 1e9)
                 for rep in reps]
        adjusted = [workload.grid_records / (_adjusted_ns(rep.grid) / 1e9)
                    for rep in reps]
    tail = tail_percentile(replay_ns)
    report["samples"] = {"repetitions": len(reps),
                         "replay_passes": len(replay_ns)}
    report["replay_ms"] = {
        "p50": statistics.median(replay_ns) / 1e6,
        "tail_percentile": None if tail is None else tail[0],
        "tail": None if tail is None else tail[1] / 1e6,
    }
    report["host_slowdown"] = {
        "setup": [rep.setup[1] for rep in reps],
        "grid": [[slowdown for _, slowdown in rep.grid] for rep in reps],
    }
    report["unadjusted"] = {
        "setup_s": statistics.median(rep.setup[0] for rep in reps) / 1e9,
        "records_per_s": statistics.median(rates),
    }
    return {
        "setup_s": statistics.median(
            _adjusted_ns([rep.setup]) for rep in reps) / 1e9,
        "records_per_s": statistics.median(adjusted),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced_metrics(reps: list[Repetition], tracer: Tracer, model: dict,
                    report: dict, problems: list[str]) -> dict[str, float]:
    traced = [rep for rep in reps if rep.traced]
    plain = [rep for rep in reps if not rep.traced]
    parts = breakdown(tracer.spans, tracer.calibration)
    sum_errors = [max(abs(total - root_ns) / root_ns,
                      abs(total - rep.wall_ns) / rep.wall_ns)
                  for rep, (root_ns, total)
                  in zip(traced, parts.roots.values())]
    if max(sum_errors) > SUM_TOLERANCE:
        problems.append(f"layer self times miss the repetition wall by "
                        f"{max(sum_errors):.2%}")
    overhead_frac = (statistics.median(rep.wall_ns for rep in traced)
                     / statistics.median(rep.wall_ns for rep in plain) - 1.0)
    lanes = [lane for rep in traced for lane in rep.lanes]
    metrics = layer_metrics(parts, len(traced), lanes, overhead_frac)
    metrics.update(_ratios(traced[0].metrics, traced[0].stats))
    metrics.update(model)
    report["samples"] = {"repetitions": len(reps),
                         "traced_repetitions": len(traced)}
    report["trace_check"] = {"max_sum_error_frac": max(sum_errors),
                             "tolerance": SUM_TOLERANCE,
                             "calibration_ns": {
                                 "inside": tracer.calibration.inside,
                                 "outside": tracer.calibration.outside}}
    report["layers"] = layer_table(parts, len(traced))
    return metrics
