"""A finished cell is freed by reference counting alone.

Nothing a cell builds -- simulator, structures, metric gauges, event
trace, attribution aggregator, interval collector -- and nothing the
divergence bisector builds may sit in a reference cycle: cyclic garbage waits for a full collection, so a cold
grid's peak RSS would depend on when one happens to run.
"""

from __future__ import annotations

import gc

import pytest

from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import Scale
from repro.obs.divergence import bisect_divergence
from repro.workloads.cache import WorkloadCache

SCALE = Scale("tiny", records=3_000, warmup=500)

#: (config, record attribution) per kind of cell.
CELLS = {
    "plain": (FrontEndConfig(), False),
    "skia": (FrontEndConfig(skia=SkiaConfig()), False),
    "comparator": (FrontEndConfig(comparator="boomerang"), False),
    "attributed": (FrontEndConfig(skia=SkiaConfig()), True),
    "interval": (FrontEndConfig(skia=SkiaConfig(), interval_size=500),
                 False),
}


@pytest.fixture(scope="module")
def cache():
    cache = WorkloadCache()
    yield cache
    cache.clear()


def run_cell(cache, config, attribution) -> None:
    runner = ExperimentRunner(scale=SCALE, cache=cache, store=None,
                              jobs=1, record_attribution=attribution)
    runner.run("noop", config)


def cyclic_garbage(action) -> list[str]:
    """Types of the ``repro`` objects ``action()`` leaves as cyclic
    garbage (collected with GC off, under ``DEBUG_SAVEALL``)."""
    action()  # imports, program, trace
    gc.collect()
    gc.disable()
    try:
        action()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return sorted({f"{type(obj).__module__}.{type(obj).__qualname__}"
                       for obj in gc.garbage
                       if type(obj).__module__.startswith("repro.")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_finished_cell_leaves_no_cyclic_garbage(cache, name):
    config, attribution = CELLS[name]
    assert cyclic_garbage(lambda: run_cell(cache, config, attribution)) == []


def test_bisector_leaves_no_cyclic_garbage(cache):
    """Every simulator ``bisect_divergence`` builds is freed by
    reference counting: an engine-vs-engine bisection (state probes on
    every window) and a cross-config one (fine pass, oracle events)."""
    program = cache.program("noop", seed=0)
    records = cache.trace("noop", SCALE.records, seed=0)
    config = FrontEndConfig(skia=SkiaConfig())

    def bisect() -> None:
        assert bisect_divergence(program, records, config, window=500,
                                 warmup=SCALE.warmup).identical
        assert not bisect_divergence(program, records, config,
                                     FrontEndConfig(), window=500,
                                     warmup=SCALE.warmup).identical

    assert cyclic_garbage(bisect) == []
