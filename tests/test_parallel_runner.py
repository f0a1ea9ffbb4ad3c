"""The parallel execution layer and the persistent result store.

Covers the contract points of the performance layer:

* parallel (``jobs > 1``) results are bit-identical to serial runs;
* the pool runs one task per (workload, seed, bolted) group, so each
  trace is generated once across all processes;
* the persistent store round-trips ``SimStats`` exactly and
  self-invalidates when its schema/version fingerprints change;
* ``config_key`` is order-stable for dict/list-valued config fields.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace

import pytest

from repro import __version__
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.stats import SimStats
from repro.harness.parallel import (
    Cell,
    ParallelRunner,
    available_cpus,
    default_jobs,
    group_cells,
    pool_tasks,
)
from repro.harness.runner import ExperimentRunner, config_key
from repro.harness.scale import Scale
from repro.harness.store import (
    ResultStore,
    default_store,
    result_key,
    schema_fingerprint,
    stats_from_jsonable,
    stats_to_jsonable,
    store_enabled,
)
from repro.isa.branch import BranchKind
from repro.workloads import WORKLOAD_NAMES
from repro.workloads.cache import WorkloadCache

TINY = Scale("test", records=6_000, warmup=2_000)

WORKLOADS = ("noop", "voter", "kafka")
CONFIGS = (FrontEndConfig(), FrontEndConfig(skia=SkiaConfig()))

GRID = [Cell(workload, config)
        for workload in WORKLOADS for config in CONFIGS]


# ----------------------------------------------------------------------
# (a) parallel == serial, bit for bit
# ----------------------------------------------------------------------

class TestParallelMatchesSerial:
    @pytest.fixture(scope="class")
    def serial_results(self):
        runner = ExperimentRunner(scale=TINY, cache=WorkloadCache(),
                                  store=None)
        return runner.run_cells(GRID, jobs=1)

    @pytest.fixture(scope="class")
    def batch_runner(self):
        """An ExperimentRunner whose memo was filled by a jobs=2 batch;
        duplicates of GRID[0] exercise in-batch dedup."""
        runner = ExperimentRunner(scale=TINY, cache=WorkloadCache(),
                                  store=None)
        runner.batch_results = runner.run_cells(list(GRID) + [GRID[0]],
                                                jobs=2)
        return runner

    def test_grid_bit_identical(self, serial_results):
        parallel = ParallelRunner(scale=TINY, jobs=2, store=None)
        results = parallel.run_batch(GRID, default_seed=0)
        assert results == serial_results

    def test_runner_batch_parallel_matches(self, batch_runner,
                                           serial_results):
        assert batch_runner.batch_results[:len(GRID)] == serial_results

    def test_duplicate_cells_deduplicated(self, batch_runner):
        results = batch_runner.batch_results
        assert len(results) == len(GRID) + 1
        assert results[-1] == results[0]

    def test_batch_populates_memo(self, batch_runner, serial_results):
        # Subsequent serial run() calls are memo hits on the same stats.
        stats = batch_runner.run("voter", CONFIGS[1])
        assert stats is serial_results[GRID.index(Cell("voter", CONFIGS[1]))] \
            or stats == serial_results[GRID.index(Cell("voter", CONFIGS[1]))]

    def test_storeless_batch_keeps_artifacts(self):
        """Without a store, a jobs=2 batch memoises the same metric
        snapshots and attribution artifacts as a serial one."""
        runners = {jobs: ExperimentRunner(scale=TINY, cache=WorkloadCache(),
                                          store=None,
                                          record_attribution=True)
                   for jobs in (1, 2)}
        for jobs, runner in runners.items():
            runner.run_cells(GRID, jobs=jobs)
        serial, pooled = runners[1], runners[2]
        for cell in GRID:
            metrics = serial.metrics_for(cell.workload, cell.config)
            attribution = serial.attribution_for(cell.workload, cell.config)
            assert metrics is not None and attribution is not None
            assert pooled.metrics_for(cell.workload, cell.config) == metrics
            assert pooled.attribution_for(cell.workload,
                                          cell.config) == attribution

    def test_run_many_parallel(self, batch_runner, serial_results):
        results = batch_runner.run_many(list(WORKLOADS), CONFIGS[0], jobs=2)
        assert set(results) == set(WORKLOADS)
        for workload in WORKLOADS:
            assert results[workload] == serial_results[
                GRID.index(Cell(workload, CONFIGS[0]))]


class TestJobsResolution:
    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_default_jobs_zero_means_available_cpus(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == available_cpus() >= 1

    def test_unset_means_available_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == available_cpus()

    def test_available_cpus_is_affinity_aware(self):
        # Never more than the machine total; at least one.
        import os
        assert 1 <= available_cpus() <= (os.cpu_count() or 1)
        counter = getattr(os, "process_cpu_count", None)
        if counter is not None:  # 3.13+
            assert available_cpus() == (counter() or 1)
        else:
            assert available_cpus() == len(os.sched_getaffinity(0))

    def test_default_jobs_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ValueError):
            default_jobs()

    def test_jobs_one_never_pools(self, monkeypatch):
        # Even with REPRO_JOBS set, an explicit jobs=1 stays serial.
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert ParallelRunner(scale=TINY, jobs=1, store=None).jobs == 1


# ----------------------------------------------------------------------
# (a') one pool task per (workload, seed, bolted) group
# ----------------------------------------------------------------------

#: A record count no other test uses, so the parent's global workload
#: cache (which forked workers inherit) holds none of these traces.
GROUPS = Scale("groups", records=4_321, warmup=1_000)


@pytest.fixture
def generation_log(tmp_path, monkeypatch):
    """Count ``TraceGenerator.stream`` calls (trace generations) in this
    process and every forked worker: one ``O_APPEND`` line (the program
    name) per call."""
    import multiprocessing
    import os

    from repro.workloads.trace import TraceGenerator

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers must inherit the counting patch (fork)")
    path = tmp_path / "generated.log"
    stream = TraceGenerator.stream

    def counting(generator, n_records):
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{generator.program.name}\n".encode())
        finally:
            os.close(fd)
        return stream(generator, n_records)

    monkeypatch.setattr(TraceGenerator, "stream", counting)
    return lambda: (Counter(path.read_text().split())
                    if path.exists() else Counter())


class TestGroupTasks:
    def test_each_trace_generated_once_across_processes(self,
                                                        generation_log):
        # Six groups: more than the workload cache's 4-trace bound.
        workloads = WORKLOAD_NAMES[:6]
        cells = [Cell(workload, config) for workload in workloads
                 for config in CONFIGS]
        ParallelRunner(scale=GROUPS, jobs=2, store=None).run_batch(cells)
        assert generation_log() == Counter(workloads)

    def test_warm_attributed_batch_generates_nothing(self, tmp_path,
                                                     generation_log):
        """Workers probe the store first: a store already holding every
        attributed entry needs no trace."""
        store = ResultStore(tmp_path / "cache")
        cells = [Cell(workload, config) for workload in ("noop", "voter")
                 for config in CONFIGS]
        ExperimentRunner(scale=GROUPS, cache=WorkloadCache(), store=store,
                         record_attribution=True).run_cells(cells, jobs=1)
        before = generation_log()
        ParallelRunner(scale=GROUPS, jobs=2, store=store,
                       record_attribution=True).run_batch(cells)
        assert generation_log() == before

    def test_single_group_split_for_idle_worker(self):
        configs = [FrontEndConfig(btb_entries=entries, skia=skia)
                   for entries in (1024, 2048, 4096, 8192)
                   for skia in (SkiaConfig.disabled(), SkiaConfig())]
        cells = [Cell("voter", config, 0) for config in configs]
        tasks = pool_tasks(cells, workers=2)
        assert [len(task) for task in tasks] == [4, 4]
        serial = ExperimentRunner(scale=TINY, cache=WorkloadCache(),
                                  store=None).run_cells(cells, jobs=1)
        parallel = ParallelRunner(scale=TINY, jobs=2,
                                  store=None).run_batch(cells)
        assert parallel == serial

    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 16])
    def test_tasks_partition_cells_by_group(self, workers):
        cells = [Cell(workload, config, seed, bolted)
                 for workload in ("noop", "voter")
                 for seed in (0, 1)
                 for bolted in (False, True)
                 for config in CONFIGS][:-3]
        tasks = pool_tasks(cells, workers)
        flat = [cell for task in tasks for cell in task]
        assert sorted(flat, key=cells.index) == cells
        for task in tasks:
            assert task
            assert len({(cell.workload, cell.seed, cell.bolted)
                        for cell in task}) == 1
        groups = group_cells(cells)
        assert len(tasks) == max(len(groups),
                                 min(workers, len(cells)))


# ----------------------------------------------------------------------
# (b) persistent store round-trip and invalidation
# ----------------------------------------------------------------------

def make_stats() -> SimStats:
    stats = SimStats(instructions=123_456, blocks=789, cycles=54_321.25,
                     taken_branches=42, btb_miss_l1i_hit=7,
                     decoder_idle_cycles=12.5)
    stats.branches[BranchKind.DIRECT_COND] = 1_000
    stats.btb_misses[BranchKind.RETURN] = 17
    return stats


class TestStoreRoundTrip:
    def test_jsonable_round_trip(self):
        stats = make_stats()
        assert stats_from_jsonable(stats_to_jsonable(stats)) == stats

    def test_put_get(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = result_key("voter", CONFIGS[0], 0, TINY)
        assert store.get(key) is None
        store.put(key, make_stats())
        assert store.get(key) == make_stats()
        assert len(store) == 1

    def test_entry_text_is_json_dumps_of_payload(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = result_key("voter", CONFIGS[0], 0, TINY)
        metrics = {"btb.hits": 3, "sbb.rate": 0.25}
        attribution = {"branches": [{"pc": 1, "kind": "call"}]}
        path = store.put(key, make_stats(), metrics=metrics,
                         attribution=attribution)
        payload = {"repro": __version__, "schema": schema_fingerprint(),
                   "stats": stats_to_jsonable(make_stats()),
                   "metrics": metrics, "attribution": attribution}
        assert path.read_text(encoding="utf-8") == json.dumps(payload)

    def test_runner_round_trips_through_store(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        first = ExperimentRunner(scale=TINY, cache=WorkloadCache(),
                                 store=store).run("noop", CONFIGS[0])
        warm_store = ResultStore(tmp_path / "cache")
        second = ExperimentRunner(scale=TINY, cache=WorkloadCache(),
                                  store=warm_store).run("noop", CONFIGS[0])
        assert warm_store.hits == 1
        assert second == first

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = result_key("voter", CONFIGS[0], 0, TINY)
        store.put(key, make_stats())
        store._path(key).write_text("{not json")
        assert store.get(key) is None

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.put(result_key("voter", CONFIGS[0], 0, TINY), make_stats())
        store.clear()
        assert len(store) == 0


class TestStoreInvalidation:
    def test_schema_version_bump_changes_key(self):
        old = result_key("voter", CONFIGS[0], 0, TINY, store_version=1)
        new = result_key("voter", CONFIGS[0], 0, TINY, store_version=2)
        assert old != new

    def test_schema_fingerprint_tracks_version(self):
        assert schema_fingerprint(1) != schema_fingerprint(2)

    def test_repro_version_changes_key(self):
        old = result_key("voter", CONFIGS[0], 0, TINY, version="1.0.0")
        new = result_key("voter", CONFIGS[0], 0, TINY, version="1.1.0")
        assert old != new

    def test_version_bump_misses_old_entry(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.put(result_key("voter", CONFIGS[0], 0, TINY, store_version=1),
                  make_stats())
        bumped = result_key("voter", CONFIGS[0], 0, TINY, store_version=2)
        assert store.get(bumped) is None

    def test_key_distinguishes_cells(self):
        keys = {
            result_key("voter", CONFIGS[0], 0, TINY),
            result_key("voter", CONFIGS[1], 0, TINY),
            result_key("noop", CONFIGS[0], 0, TINY),
            result_key("voter", CONFIGS[0], 1, TINY),
            result_key("voter", CONFIGS[0], 0, TINY, bolted=True),
            result_key("voter", CONFIGS[0], 0,
                       Scale("test2", records=7_000, warmup=2_000)),
        }
        assert len(keys) == 6

    def test_scale_name_is_a_label_not_identity(self):
        renamed = Scale("renamed", records=TINY.records, warmup=TINY.warmup)
        assert (result_key("voter", CONFIGS[0], 0, TINY)
                == result_key("voter", CONFIGS[0], 0, renamed))


class TestStoreOptOut:
    def test_env_opt_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_STORE", "1")
        assert not store_enabled()
        assert default_store() is None

    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_STORE", raising=False)
        assert store_enabled()

    def test_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NO_STORE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        store = default_store()
        assert store is not None
        assert store.root == tmp_path / "elsewhere"


# ----------------------------------------------------------------------
# (c) config_key order stability
# ----------------------------------------------------------------------

@dataclass
class FakeConfig:
    mapping: dict = field(default_factory=dict)
    items: list = field(default_factory=list)
    nested: dict = field(default_factory=dict)


class TestConfigKeyStability:
    def test_dict_field_order_stable(self):
        first = FakeConfig(mapping={"beta": 1, "alpha": 2})
        second = FakeConfig(mapping={"alpha": 2, "beta": 1})
        assert config_key(first) == config_key(second)

    def test_nested_dict_order_stable(self):
        first = FakeConfig(nested={"outer": {"b": 1, "a": 2}})
        second = FakeConfig(nested={"outer": {"a": 2, "b": 1}})
        assert config_key(first) == config_key(second)

    def test_list_fields_hashable(self):
        key = config_key(FakeConfig(items=[3, 1, 2]))
        hash(key)

    def test_list_order_significant(self):
        assert (config_key(FakeConfig(items=[1, 2]))
                != config_key(FakeConfig(items=[2, 1])))

    def test_real_configs_distinct_and_stable(self):
        assert config_key(FrontEndConfig()) == config_key(FrontEndConfig())
        assert (config_key(CONFIGS[0]) != config_key(CONFIGS[1]))
        assert (config_key(replace(FrontEndConfig(), btb_entries=4096))
                != config_key(FrontEndConfig()))
