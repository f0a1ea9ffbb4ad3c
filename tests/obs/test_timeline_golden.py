"""Golden pipeline timelines.

Pins, for three voter cells at smoke scale, the SHA-256 of
``repr(list(timeline))`` (the ring's raw span/instant tuples) and of the
Chrome trace-event export (which also carries ``emitted``/``dropped``):

* ``skia-btb256`` -- Skia with a 256-entry BTB, so BTB misses, SBB hits,
  both SBD tracks and resteers of every stage appear;
* ``skia-head`` -- head decoding only (no ``sbd.tail`` spans);
* ``airbtb`` -- the AirBTB comparator (no SBD or SBB events), on a
  64K-event ring that drops its oldest events.

The digests were taken when the recorder was driven live from the
per-record oracle.  Both engines now render the timeline after the run
from per-record outcome and stage-time rows, and each must reproduce
them.  Run directly to recompute every digest
(exit status 1 on any mismatch)::

    PYTHONPATH=src python tests/obs/test_timeline_golden.py
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from repro.frontend.batch import run_compiled_batched
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.harness.scale import SCALES
from repro.obs import TimelineRecorder
from repro.workloads.cache import WorkloadCache

SCALE = SCALES["smoke"]
WORKLOAD = "voter"

#: Per cell: (config, timeline ring capacity).
CELLS: dict[str, tuple[FrontEndConfig, int]] = {
    "skia-btb256": (
        FrontEndConfig(skia=SkiaConfig()).with_btb_entries(256), 262_144),
    "skia-head": (FrontEndConfig(skia=SkiaConfig(decode_tails=False)),
                  262_144),
    "airbtb": (FrontEndConfig().with_comparator("airbtb"), 65_536),
}

#: Per cell: (SHA-256 of ``repr(list(timeline))``, of the Chrome export).
GOLDEN: dict[str, tuple[str, str]] = {
    "skia-btb256": (
        "0c181c4259ff5e410d12f59432b7d2b819834df4b29e9045e822ace4c2d29c1e",
        "2ab2b0d5c13a22d3b921f24357cb13948180977cc4a6f0a834a199832b6ea535"),
    "skia-head": (
        "b0b25fc403e92383225aea552d0b0b572550240610b3b5d4c35eb289736fb894",
        "7e4422da7f3a2cf18f2374571920d4c23b440078e96ad040bbf4ce8346cb8171"),
    "airbtb": (
        "fab98e2eeb1626afe792b83fb157eebf8bc2643a95463df0f7d9c34a34836a99",
        "0bd488f32ba8891ff331e1486667da2fa347a8c5c6974afce629e505021bc119"),
}

#: How each engine replays one cell.
ENGINES = {
    "run_compiled": lambda simulator, compiled: simulator.run_compiled(
        compiled, warmup=SCALE.warmup),
    "kernel": lambda simulator, compiled: run_compiled_batched(
        simulator, compiled, warmup=SCALE.warmup),
}

_CACHE = WorkloadCache()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def timeline_digests(label: str, engine: str) -> tuple[str, str]:
    """The two digests of ``label``'s timeline when ``engine`` runs it."""
    program = _CACHE.program(WORKLOAD, seed=0)
    compiled = _CACHE.compiled(WORKLOAD, SCALE.records, seed=0)
    config, capacity = CELLS[label]
    simulator = FrontEndSimulator(program, config, seed=0)
    timeline = TimelineRecorder(capacity)
    simulator.attach_timeline(timeline)
    ENGINES[engine](simulator, compiled)
    with tempfile.TemporaryDirectory() as tmp:
        chrome = timeline.to_chrome(Path(tmp) / "timeline.json").read_bytes()
    return _sha(repr(list(timeline)).encode()), _sha(chrome)


def test_table_covers_every_cell():
    assert sorted(GOLDEN) == sorted(CELLS)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("label", sorted(CELLS))
def test_timeline_golden(label, engine):
    assert timeline_digests(label, engine) == GOLDEN[label]


if __name__ == "__main__":
    failed = False
    for name in CELLS:
        for engine_name in ENGINES:
            got = timeline_digests(name, engine_name)
            failed |= got != GOLDEN[name]
            print("OK" if got == GOLDEN[name] else "MISMATCH", name,
                  engine_name, *got)
    sys.exit(1 if failed else 0)
