"""The ``run_compiled`` reference for harness-path tests.

The harness runs every cell on the lane kernel.  Tests that check a
harness path against the per-record oracle replay each cell here, on
the same program, compiled trace and seed the harness uses; tests that
check the harness never leaves the kernel make the oracle raise.
"""

from __future__ import annotations

from repro.frontend.engine import FrontEndSimulator
from repro.workloads.cache import WorkloadCache


def oracle_cells(scale, cells) -> list:
    """Each resolved cell's ``SimStats`` from ``run_compiled``."""
    cache = WorkloadCache()
    results = []
    for cell in cells:
        program = cache.program(cell.workload, seed=cell.seed,
                                bolted=cell.bolted)
        compiled = cache.compiled(cell.workload, scale.records,
                                  seed=cell.seed, bolted=cell.bolted)
        simulator = FrontEndSimulator(program, cell.config, seed=cell.seed)
        results.append(simulator.run_compiled(compiled,
                                              warmup=scale.warmup))
    return results


def refuse_oracle(monkeypatch) -> None:
    """Fail any ``run_compiled`` call: the harness must use the kernel."""
    def refuse(*args, **kwargs):
        raise AssertionError("harness cell ran on run_compiled")
    monkeypatch.setattr(FrontEndSimulator, "run_compiled", refuse)
