"""Memoisation of generated programs and compiled traces.

Experiments sweep dozens of front-end configurations over the same
(workload, seed) pair; regenerating a megabyte program or a half-million
record trace per configuration would dominate runtime.  The cache keys on
everything that affects the artefact and nothing else.

The cache is in-process only: every Python session regenerates what it
uses, and one full-size program takes 0.3-0.7 s to generate (2-CPU
x86_64 host, Python 3.11).  :func:`build_program` and
:func:`build_trace` read the process-wide :data:`GLOBAL_CACHE`;
``build_trace`` returns its memoised :class:`CompiledTrace`.
"""

from __future__ import annotations

from repro.caching import CacheStats, LRUCache
from repro.workloads.bolt import bolt_optimize
from repro.workloads.codegen import ProgramGenerator
from repro.workloads.compiled import CompiledTrace
from repro.workloads.profiles import get_profile
from repro.workloads.program import Program
from repro.workloads.trace import TraceGenerator


class WorkloadCache:
    """Caches programs and compiled traces.

    Programs are small and kept unbounded; traces are large, so only the
    ``max_traces`` most recently *used* compiled traces survive (genuine
    LRU: a cache hit refreshes the trace's recency).  Both caches count
    hits, misses and evictions -- see :meth:`stats`.

    A trace is generated as a block-index stream and compiled straight
    from it (:meth:`CompiledTrace.from_stream`).
    """

    def __init__(self, max_traces: int = 4):
        self._programs = LRUCache(maxsize=None)
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
              trace_seed: int = 0, bolted: bool = False) -> CompiledTrace:
        """Alias of :meth:`compiled`: the same memoised trace."""
        return self.compiled(workload, n_records, seed=seed,
                             trace_seed=trace_seed, bolted=bolted)

    def compiled(self, workload: str, n_records: int, seed: int = 0,
                 trace_seed: int = 0, bolted: bool = False,
                 ) -> CompiledTrace:
        """The compiled trace of ``workload`` (memoised).

        The same (program, seeds, length) compiles to byte-identical
        columns in any process.
        """
        key = (workload, seed, bolted, trace_seed, n_records)
        cached = self._compiled.get(key)
        if cached is None:
            program = self.program(workload, seed=seed, bolted=bolted)
            generator = TraceGenerator(
                program, seed=trace_seed,
                dispatch_run_range=get_profile(workload).dispatch_run_range)
            cached = CompiledTrace.from_stream(
                generator.columns, *generator.stream(n_records))
            self._compiled[key] = cached
        return cached

    def stats(self) -> dict[str, CacheStats]:
        """Hit/miss/eviction counters for both caches."""
        return {"programs": self._programs.stats,
                "compiled": self._compiled.stats}

    def clear(self) -> None:
        self._programs.clear()
        self._compiled.clear()


#: Process-wide default cache used by the harness.
GLOBAL_CACHE = WorkloadCache()


def build_program(workload: str, seed: int = 0, bolted: bool = False) -> Program:
    """Convenience accessor against the global cache."""
    return GLOBAL_CACHE.program(workload, seed=seed, bolted=bolted)


def build_trace(workload: str, n_records: int, seed: int = 0,
                trace_seed: int = 0, bolted: bool = False) -> CompiledTrace:
    """Convenience accessor against the global cache."""
    return GLOBAL_CACHE.compiled(workload, n_records, seed=seed,
                                 trace_seed=trace_seed, bolted=bolted)
