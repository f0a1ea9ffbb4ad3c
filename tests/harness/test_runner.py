"""Experiment runner memoisation and scale selection."""

from dataclasses import replace

import pytest

from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.stats import SimStats
from repro.harness.runner import ExperimentRunner, config_key
from repro.harness.scale import SCALES, Scale, current_scale
from repro.harness.store import ResultStore
from repro.workloads.cache import WorkloadCache


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale=Scale("test", records=6_000, warmup=2_000),
                            cache=WorkloadCache())


class TestConfigKey:
    def test_equal_configs_equal_keys(self):
        assert config_key(FrontEndConfig()) == config_key(FrontEndConfig())

    def test_different_configs_differ(self):
        assert config_key(FrontEndConfig()) != config_key(
            FrontEndConfig(btb_entries=4096))

    def test_skia_included(self):
        assert config_key(FrontEndConfig()) != config_key(
            FrontEndConfig(skia=SkiaConfig()))

    def test_hashable(self):
        hash(config_key(FrontEndConfig()))


class TestComparatorKeyFingerprinting:
    """Satellite audit: the comparator type AND every comparator knob
    land in the content-addressed key, so flipping one can never alias
    a cached result from a different design."""

    def test_comparator_type_in_key(self):
        base = FrontEndConfig()
        keys = {config_key(base)}
        for name in ("airbtb", "boomerang", "microbtb", "fdip"):
            keys.add(config_key(base.with_comparator(name)))
        assert len(keys) == 5  # all distinct

    @pytest.mark.parametrize("field, value", [
        ("airbtb_max_lines", 1024),
        ("airbtb_entries_per_line", 2),
        ("boomerang_buffer_entries", 32),
        ("microbtb_max_lines", 4096),
        ("microbtb_entries_per_line", 2),
        ("microbtb_fill_lines", 32),
        ("fdip_depth", 4),
        ("fdip_buffer_entries", 32),
    ])
    def test_every_comparator_knob_changes_key(self, field, value):
        config = FrontEndConfig().with_comparator("microbtb")
        assert config_key(config) != config_key(
            replace(config, **{field: value}))

    def test_fdip_depth_sweep_distinct_keys(self):
        keys = {config_key(FrontEndConfig().with_fdip_depth(depth))
                for depth in (1, 2, 4, 8)}
        assert len(keys) == 4

    def test_knob_flip_is_a_store_miss(self, tmp_path):
        """Flipping one comparator knob must miss in the result store."""
        store = ResultStore(tmp_path)
        scale = Scale("keytest", records=1_000, warmup=100)
        config = FrontEndConfig().with_fdip_depth(2)
        key = store.key("noop", config, 0, scale)
        store.put(key, SimStats())
        assert store.get(key) is not None
        flipped = store.key("noop", config.with_fdip_depth(4), 0, scale)
        assert flipped != key
        assert store.get(flipped) is None


class TestRunner:
    def test_memoises(self, runner):
        first = runner.run("noop", FrontEndConfig())
        second = runner.run("noop", FrontEndConfig())
        assert first is second

    def test_distinct_configs_run_separately(self, runner):
        base = runner.run("noop", FrontEndConfig())
        skia = runner.run("noop", FrontEndConfig(skia=SkiaConfig()))
        assert base is not skia

    def test_run_many(self, runner):
        results = runner.run_many(["noop", "voter"], FrontEndConfig())
        assert set(results) == {"noop", "voter"}

    def test_measured_records_accounted(self, runner):
        stats = runner.run("noop", FrontEndConfig())
        assert stats.blocks == runner.scale.measured_records


class TestScale:
    def test_default_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale().name == "quick"

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale().name == "smoke"

    def test_unknown_scale_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            current_scale()

    def test_all_scales_warmup_below_records(self):
        for scale in SCALES.values():
            assert 0 < scale.warmup < scale.records
