"""Interval-series artifacts through the harness plumbing.

The series rides the result-store payload next to stats/metrics; these
tests pin the persistence contract (store round-trip, backfill of
pre-series entries) and the tier-1 guarantee that serial and parallel
runs hand back byte-identical artifacts.
"""

import dataclasses

import pytest

from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.stats import SimStats
from repro.harness.parallel import Cell, ParallelRunner
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import Scale
from repro.harness.store import ResultStore
from repro.obs.intervals import IntervalSeries

SCALE = Scale("ivtest", records=1_000, warmup=150)
WINDOW = 100

CONFIGS = {
    "base": FrontEndConfig(interval_size=WINDOW),
    "head": FrontEndConfig(skia=SkiaConfig(decode_tails=False),
                           interval_size=WINDOW),
    "tail": FrontEndConfig(skia=SkiaConfig(decode_heads=False),
                           interval_size=WINDOW),
    "skia": FrontEndConfig(skia=SkiaConfig(), interval_size=WINDOW),
}


class TestStoreArtifact:
    def test_round_trip_next_to_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        config = CONFIGS["skia"]
        key = store.key("noop", config, 0, SCALE)
        payload = {"schema_version": 1, "interval_size": WINDOW,
                   "warmup": 150, "ends": [100], "columns": {"blocks": [7]}}
        store.put(key, SimStats(), intervals=payload)
        assert store.get(key) is not None
        assert store.get_intervals(key) == payload
        series = IntervalSeries.from_jsonable(store.get_intervals(key))
        assert series.ends == [100]

    def test_absent_for_entries_without_series(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.key("noop", FrontEndConfig(), 0, SCALE)
        store.put(key, SimStats())
        assert store.get_intervals(key) is None

    def test_interval_size_lands_in_store_key(self, tmp_path):
        store = ResultStore(tmp_path)
        plain = store.key("noop", FrontEndConfig(), 0, SCALE)
        windowed = store.key(
            "noop", FrontEndConfig(interval_size=WINDOW), 0, SCALE)
        assert plain != windowed


class TestRunnerPlumbing:
    def test_run_records_the_series(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, store=ResultStore(tmp_path))
        config = FrontEndConfig(skia=SkiaConfig(), interval_size=WINDOW)
        stats = runner.run("noop", config)
        series = IntervalSeries.from_jsonable(
            runner.intervals_for("noop", config))
        assert stats.blocks > 0
        assert series.interval_size == WINDOW
        assert series.windows == SCALE.records // WINDOW
        assert series.totals()["blocks"] == stats.blocks

    @pytest.mark.parametrize("route", ["run", "serial", "parallel"])
    @pytest.mark.parametrize("artifact", ["intervals", "attribution"])
    def test_store_hit_without_artifact_backfills(self, tmp_path, artifact,
                                                  route):
        """A stats-only store entry is re-simulated once, on every route
        into the cell body; the backfilled artifact equals a fresh
        run's."""
        attribution = artifact == "attribution"
        store = ResultStore(tmp_path)
        config = FrontEndConfig(skia=SkiaConfig(),
                                interval_size=0 if attribution else WINDOW)
        first = ExperimentRunner(scale=SCALE, store=store,
                                 record_attribution=attribution)
        reference = first.run("noop", config)
        key = store.key("noop", config, 0, SCALE)
        stored = getattr(store, f"get_{artifact}")
        payload = stored(key)
        assert payload is not None
        # Strip the artifact, keeping the stats -- simulates an entry
        # written before the artifact existed.
        store.put(key, reference)
        assert stored(key) is None
        second = ExperimentRunner(scale=SCALE, store=store,
                                  record_attribution=attribution)
        if route == "run":
            stats = second.run("noop", config)
        else:
            [stats] = second.run_cells([Cell("noop", config)],
                                       jobs=1 if route == "serial" else 2)
        assert dataclasses.asdict(stats) == dataclasses.asdict(reference)
        assert getattr(second, f"{artifact}_for")("noop", config) == payload
        assert stored(key) == payload

    def test_intervals_for_reads_memo_and_store(self, tmp_path):
        store = ResultStore(tmp_path)
        config = FrontEndConfig(interval_size=WINDOW)
        runner = ExperimentRunner(scale=SCALE, store=store)
        runner.run("noop", config)
        payload = runner.intervals_for("noop", config)
        assert payload is not None
        # A fresh runner sharing the store reads it back cold.
        other = ExperimentRunner(scale=SCALE, store=ResultStore(tmp_path))
        assert other.intervals_for("noop", config) == payload

    def test_disabled_cells_record_nothing(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, store=ResultStore(tmp_path))
        runner.run("noop", FrontEndConfig())
        assert runner.intervals_for("noop", FrontEndConfig()) is None


class TestSerialParallelIdentity:
    CELLS = [Cell("voter", config) for config in CONFIGS.values()]

    def _series_texts(self, runner, store):
        texts = {}
        for cell in self.CELLS:
            seed = cell.seed if cell.seed is not None else 0
            key = store.key(cell.workload, cell.config, seed, SCALE,
                            bolted=cell.bolted)
            payload = store.get_intervals(key)
            assert payload is not None, cell
            texts[cell.identity(SCALE)] = IntervalSeries.from_jsonable(
                payload).to_json_text()
        return texts

    def test_serial_and_parallel_artifacts_byte_identical(self, tmp_path):
        serial_store = ResultStore(tmp_path / "serial")
        serial = ExperimentRunner(scale=SCALE, store=serial_store)
        serial.run_cells(self.CELLS, jobs=1)
        serial_texts = self._series_texts(serial, serial_store)

        parallel_store = ResultStore(tmp_path / "parallel")
        parallel = ParallelRunner(scale=SCALE, jobs=2,
                                  store=parallel_store)
        parallel.run_batch(self.CELLS)
        parallel_texts = self._series_texts(parallel, parallel_store)

        assert parallel_texts == serial_texts
