"""Tests of the benchmark itself.  Run from the repository root with
``python3 -m pytest bench/`` (the repository's own suite is ``tests/``)."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import driver  # noqa: E402
from checks import CellLedger, cell_problems, stats_digest  # noqa: E402
from grids import WORKLOADS, Workload  # noqa: E402
from repro.frontend.batch import run_compiled_batched  # noqa: E402
from repro.frontend.config import FrontEndConfig  # noqa: E402
from repro.frontend.engine import FrontEndSimulator  # noqa: E402
from repro.harness.experiments import exhibit_cells  # noqa: E402
from repro.harness.scale import Scale  # noqa: E402
from repro.obs.invariants import snapshot_from_stats  # noqa: E402
from repro.workloads.cache import WorkloadCache  # noqa: E402
from tracer import Calibration, Span, breakdown  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Small stand-ins for the real workloads: the same code paths (kernel
#: grid with object and fast-forward-off oracles; attribution grid with
#: a kernel oracle) in well under a second per repetition.  34 replay
#: passes x 3 repetitions = 102 samples, enough for a p90.
_STEADY = tuple(exhibit_cells("fig14", workloads=("steady-stream",)))
TINY = (
    Workload(name="tiny-kernel", why="test",
             scale=Scale("bench-test", records=3_000, warmup=1_000),
             cells=_STEADY, replay_passes=34,
             oracles=("object", "kernel-no-ff")),
    Workload(name="tiny-attrib", why="test",
             scale=Scale("bench-test", records=2_000, warmup=500),
             cells=_STEADY, replay_passes=34, oracles=("kernel",),
             attribution=True),
)


def _spec(entries: list[dict]) -> dict[str, tuple[str, str]]:
    return {entry["name"]: (entry["unit"], entry["better"])
            for entry in entries}


def test_benchmark_json_matches_the_driver():
    assert _spec(BENCHMARK["end_to_end"]) == driver.END_TO_END
    assert _spec(BENCHMARK["per_layer"]) == driver.PER_LAYER
    assert [(entry["name"], entry["why"])
            for entry in BENCHMARK["workloads"]] == [
        (workload.name, workload.why) for workload in WORKLOADS.values()]
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
def test_run_emits_exactly_the_declared_metrics(workload, trace):
    result, report, _ = driver.run(workload, seed=1, seconds=0, trace=trace)
    declared = driver.PER_LAYER if trace else driver.END_TO_END
    assert {name: entry["unit"] for name, entry in
            result["metrics"].items()} == {
        name: unit for name, (unit, _) in declared.items()}
    assert result["correct"], report["failures"]
    assert result["failed"] == 0
    assert result["attempted"] == report["cells_total"] > 0
    if trace:
        assert report["trace_check"]["max_sum_error_frac"] <= 0.01
        assert "trace.overhead_frac" in result["metrics"]
    else:
        assert report["replay_ms"]["tail_percentile"] >= 90.0


def test_percentile_rule_counts_samples_beyond():
    assert driver.percentile([5, 1, 3], 50.0) == 3
    assert driver.beyond(300, 95.0) == 15
    assert driver.tail_percentile(list(range(1, 301))) == (95.0, 285)
    # 200 samples leave exactly 10 beyond p95; 199 leave 9, so p90.
    assert driver.tail_percentile(list(range(1, 201))) == (95.0, 190)
    assert driver.tail_percentile(list(range(1, 200))) == (90.0, 180)
    assert driver.tail_percentile(list(range(1, 1001)))[0] == 99.0
    assert driver.tail_percentile(list(range(15))) is None


def test_self_times_of_a_nested_span_set():
    calibration = Calibration(inside=2.0, outside=3.0)
    spans = [
        Span(0, None, "bench.repetition", 0, start=0, end=2000),
        # 10 lookups, and 5 accesses each calling one nested fill.
        Span(1, 0, "harness.run_cells", 0, start=100, end=1100, ops={
            "frontend.btb.lookup": [10, 200, 0, 0],
            "frontend.caches.access": [5, 150, 50, 5],
            "frontend.caches.fill": [5, 50, 0, 0]}),
        Span(2, 1, "frontend.kernel", 0, start=200, end=400),
        Span(3, 0, "workloads.program", 0, start=1200, end=1300),
        # Extends past its parent: only the covered part counts.
        Span(4, 0, "workloads.trace", 0, start=1900, end=2100),
    ]
    parts = breakdown(spans, calibration)
    assert parts.op_self == {"frontend.btb.lookup": 200 - 10 * 2,
                             "frontend.caches.access": 150 - 50 - 5 * 3
                             - 5 * 2,
                             "frontend.caches.fill": 50 - 5 * 2}
    assert parts.op_calls["frontend.caches.fill"] == 5
    # 1000 - child span 200 - direct ops (400 - 50) - 15 direct calls * 3
    assert parts.span_self["harness.run_cells"] == 405
    assert parts.span_inclusive["harness.run_cells"] == 1000 - 20 * 5
    assert parts.span_self["frontend.kernel"] == 200
    assert parts.span_self["bench.repetition"] == 2000 - 1000 - 100 - 100
    assert parts.overhead == 20 * 5
    (duration, total), = parts.roots.values()
    # The trace span's 100 ns outside its parent are not in the root.
    assert duration == 2000 and total == 2100


def _cell():
    cache = WorkloadCache()
    simulator = FrontEndSimulator(cache.program("steady-stream"),
                                  FrontEndConfig())
    stats = run_compiled_batched(
        simulator, cache.compiled("steady-stream", 2_000), warmup=500)
    return stats, simulator.metrics_snapshot()


def test_perturbed_stats_count_as_a_failed_cell():
    stats, metrics = _cell()
    perturbed = dataclasses.replace(stats, btb_lookups=stats.btb_lookups + 1)
    ledger = CellLedger()
    ledger.record("clean", cell_problems(stats, metrics, stats, metrics))
    ledger.record("perturbed", cell_problems(perturbed, metrics, stats,
                                             metrics))
    # Without a reference the perturbation breaks an invariant instead.
    snapshot = {**metrics, **snapshot_from_stats(perturbed)}
    ledger.record("invariant", cell_problems(perturbed, snapshot))
    assert (ledger.checked, ledger.failed) == (3, 2)
    assert "btb_lookups" in ledger.failures[0]
    assert "invariant" in ledger.failures[1]
    assert stats_digest([perturbed]) != stats_digest([stats])


def test_run_refuses_without_the_program_or_with_overrides(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "bench" / "run.py", tmp_path / "bench" / "run.py")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    args = ["--workload", "steady-ff", "--seed", "0", "--seconds", "1",
            "--trace", "0"]
    bare = subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert bare.returncode != 0 and bare.stdout == ""
    overridden = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=ROOT,
        env={**env, "REPRO_SCALE": "smoke"}, capture_output=True, text=True,
        timeout=60)
    assert overridden.returncode != 0 and overridden.stdout == ""
