"""The warm probe of a cell: one store address, one read.

A figure re-rendered from a warm store runs ``run_cells`` and then
``metrics_for`` on a fresh runner for every cell.  Each cell should cost
one :func:`~repro.harness.store.config_key` (the store address; the memo
identity is the frozen config itself) and one open + parse of its entry
(stats, artifacts and metric snapshot together).  The counts are taken
with wrappers, not timings, so the guard is exact on any host.
"""

from __future__ import annotations

import builtins
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.harness import parallel, runner as runner_mod, store as store_mod
from repro.harness.parallel import Cell
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import Scale
from repro.harness.store import ResultStore
from repro.workloads.cache import WorkloadCache

SCALE = Scale("warm-path", records=2_000, warmup=500)
CONFIGS = (FrontEndConfig(), FrontEndConfig(skia=SkiaConfig()),
           FrontEndConfig(interval_size=500))
GRID = [Cell(workload, config)
        for workload in ("noop", "voter") for config in CONFIGS]


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("warm") / "cache")
    ExperimentRunner(scale=SCALE, cache=WorkloadCache(), store=store,
                     jobs=1).run_cells(GRID)
    assert len(store) == len(GRID)
    return store


def _wrap(monkeypatch, module, name: str, note) -> None:
    """Replace ``module.name`` by a wrapper that calls ``note(args)``
    first; a module without the name gets a shadow of the builtin."""
    original = getattr(module, name, None) or getattr(builtins, name)

    def counting(*args, **kwargs):
        note(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting, raising=False)


def test_warm_pass_reads_each_entry_once(warm_store, monkeypatch):
    opened: Counter = Counter()
    calls: Counter = Counter()
    # The shadowed ``open`` sees store reads only.
    _wrap(monkeypatch, store_mod, "open",
          lambda args: opened.update([str(args[0])]))
    _wrap(monkeypatch, json, "load", lambda args: calls.update(["parse"]))
    for module in (store_mod, parallel, runner_mod):
        if hasattr(module, "config_key"):
            _wrap(monkeypatch, module, "config_key",
                  lambda args: calls.update(["config_key"]))
    store = ResultStore(warm_store.root)
    replayer = ExperimentRunner(scale=SCALE, cache=WorkloadCache(),
                                store=store, jobs=1)
    stats = replayer.run_cells(GRID)
    metrics = [replayer.metrics_for(cell.workload, cell.config)
               for cell in GRID]

    assert store.hits == len(GRID) and store.misses == 0
    assert store.writes == 0
    assert all(item is not None for item in stats + metrics)
    entries = {str(path) for path in Path(store.root).glob("*/*.json")}
    assert set(opened) == entries
    assert set(opened.values()) == {1}, "an entry was opened twice"
    assert calls["parse"] == len(GRID)
    assert calls["config_key"] <= len(GRID)

