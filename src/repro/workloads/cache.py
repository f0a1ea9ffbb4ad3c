"""Memoisation of generated programs and traces.

Experiments sweep dozens of front-end configurations over the same
(workload, seed) pair; regenerating a megabyte program or a half-million
record trace per configuration would dominate runtime.  The cache keys on
everything that affects the artefact and nothing else.

The cache is in-process only: every Python session regenerates what it
uses, and one full-size program takes 0.3-0.7 s to generate (2-CPU
x86_64 host, Python 3.11).
"""

from __future__ import annotations

from repro.caching import CacheStats, LRUCache
from repro.workloads.bolt import bolt_optimize
from repro.workloads.codegen import ProgramGenerator
from repro.workloads.compiled import DEFAULT_LINE_SIZES, CompiledTrace
from repro.workloads.profiles import get_profile
from repro.workloads.program import Program
from repro.workloads.trace import BlockRecord, TraceGenerator


class WorkloadCache:
    """Caches programs, materialised traces and compiled traces.

    Programs are small and kept unbounded; traces are large, so only the
    ``max_traces`` most recently *used* survive (genuine LRU: a cache hit
    refreshes the trace's recency).  Compiled traces share the same
    bound.  All caches count hits, misses and evictions -- see
    :meth:`stats`.

    A materialised record list lives only until it is compiled: the
    simulators read the compiled columns, so :meth:`compiled` drops the
    list it lowered instead of keeping ~10^5 objects per trace alive.
    A later :meth:`trace` for the same key regenerates the list
    (generation is deterministic, so it is equal to the dropped one).
    """

    def __init__(self, max_traces: int = 4):
        self._programs = LRUCache(maxsize=None)
        self._traces = LRUCache(maxsize=max_traces)
        self._compiled = LRUCache(maxsize=max_traces)

    def program(self, workload: str, seed: int = 0,
                bolted: bool = False) -> Program:
        key = (workload, seed, bolted)
        cached = self._programs.get(key)
        if cached is None:
            profile = get_profile(workload)
            cached = ProgramGenerator(profile, seed=seed).generate()
            if bolted:
                cached = bolt_optimize(cached, seed=seed)
            self._programs[key] = cached
        return cached

    def trace(self, workload: str, n_records: int, seed: int = 0,
              trace_seed: int = 0, bolted: bool = False) -> list[BlockRecord]:
        key = (workload, seed, bolted, trace_seed, n_records)
        cached = self._traces.get(key)
        if cached is None:
            program = self.program(workload, seed=seed, bolted=bolted)
            profile = get_profile(workload)
            cached = TraceGenerator(
                program, seed=trace_seed,
                dispatch_run_range=profile.dispatch_run_range,
            ).records(n_records)
            self._traces[key] = cached
        return cached

    def compiled(self, workload: str, n_records: int, seed: int = 0,
                 trace_seed: int = 0, bolted: bool = False,
                 ) -> CompiledTrace:
        """The flat-array lowering of :meth:`trace` (memoised).

        Key and content are exactly the object trace's: compiling the
        cached record list yields byte-identical columns for the same
        (program, seed) in any process.  The record list is dropped from
        the trace cache once compiled.  Line-size-dependent derived
        columns are precomputed for the stock 64-byte lines and derived
        lazily (and memoised per instance) for any other size.
        """
        key = (workload, seed, bolted, trace_seed, n_records)
        cached = self._compiled.get(key)
        if cached is None:
            records = self.trace(workload, n_records, seed=seed,
                                 trace_seed=trace_seed, bolted=bolted)
            cached = CompiledTrace.from_records(
                records, line_sizes=DEFAULT_LINE_SIZES)
            self._compiled[key] = cached
            self._traces.pop(key)
        return cached

    def stats(self) -> dict[str, CacheStats]:
        """Hit/miss/eviction counters for all three caches."""
        return {"programs": self._programs.stats,
                "traces": self._traces.stats,
                "compiled": self._compiled.stats}

    def clear(self) -> None:
        self._programs.clear()
        self._traces.clear()
        self._compiled.clear()


#: Process-wide default cache used by the harness.
GLOBAL_CACHE = WorkloadCache()


def build_program(workload: str, seed: int = 0, bolted: bool = False) -> Program:
    """Convenience accessor against the global cache."""
    return GLOBAL_CACHE.program(workload, seed=seed, bolted=bolted)


def build_trace(workload: str, n_records: int, seed: int = 0,
                trace_seed: int = 0, bolted: bool = False) -> list[BlockRecord]:
    """Convenience accessor against the global cache."""
    return GLOBAL_CACHE.trace(workload, n_records, seed=seed,
                              trace_seed=trace_seed, bolted=bolted)


def build_compiled_trace(workload: str, n_records: int, seed: int = 0,
                         trace_seed: int = 0,
                         bolted: bool = False) -> CompiledTrace:
    """Convenience accessor against the global cache."""
    return GLOBAL_CACHE.compiled(workload, n_records, seed=seed,
                                 trace_seed=trace_seed, bolted=bolted)
