"""Lanes of one batch that share a trace and a predictor setup.

The lane kernel steps the direction and target predictors (TAGE, the
loop predictor, ITTAGE and the RAS) once per such group rather than
once per lane.  These tests pin down how: one pass per group, a group
key that covers every predictor attribute, a hand-off copy that shares
nothing with its source, and a fast-forward lane in a mixed batch that
still skips, with the stats, snapshot and predictor state of a run that
steps every record.
"""

import dataclasses
import random

import pytest

from repro.frontend import batch as batch_mod
from repro.frontend.batch import BatchedFrontEndSimulator
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.frontend.predictor import TageLite
from repro.obs import TimelineRecorder
from repro.isa.branch import BranchKind
from repro.workloads import build_program, build_trace
from repro.workloads.cache import WorkloadCache
from repro.workloads.compiled import CODE_BY_KIND
from tests.frontend.test_fastforward import (
    COVERAGE_CONFIGS,
    _first_entry,
    _perturbed,
    _warm,
)

STEADY = "steady-stream"
RECORDS = 24_000
WARMUP = 500
PREDICTORS = ("tage", "ittage", "loop", "ras")


@pytest.fixture(scope="module")
def steady():
    cache = WorkloadCache()
    return (cache.program(STEADY, seed=0),
            cache.compiled(STEADY, RECORDS, seed=0))


def _steady_batch(program, compiled, monkeypatch, fastforward: str):
    """Three lanes of one setup on the steady trace: two may skip, the
    one with a timeline recorder steps every record."""
    monkeypatch.setenv("REPRO_FASTFORWARD", fastforward)
    batch = BatchedFrontEndSimulator()
    simulators = []
    for config, timeline in ((FrontEndConfig(), False),
                             (FrontEndConfig(skia=SkiaConfig()), False),
                             (FrontEndConfig(), True)):
        simulator = FrontEndSimulator(program, config, seed=0)
        if timeline:
            simulator.attach_timeline(TimelineRecorder(capacity=16))
        batch.add_lane(simulator, compiled, warmup=WARMUP)
        simulators.append(simulator)
    stats = batch.run()
    return [(dataclasses.asdict(result), simulator.metrics_snapshot(),
             {name: simulator.structures()[name].state(0.0)
              for name in PREDICTORS},
             simulator.fastforward_summary)
            for simulator, result in zip(simulators, stats)]


def test_fastforward_lane_in_a_shared_batch_still_skips(steady,
                                                        monkeypatch):
    program, compiled = steady
    on = _steady_batch(program, compiled, monkeypatch, "1")
    off = _steady_batch(program, compiled, monkeypatch, "0")
    for index, (lane_on, lane_off) in enumerate(zip(on, off)):
        assert lane_on[0] == lane_off[0], ("SimStats diverged", index)
        assert lane_on[1] == lane_off[1], ("snapshot diverged", index)
        assert lane_on[2] == lane_off[2], ("predictor state", index)
    for summary in (on[0][3], on[1][3]):
        assert summary["engaged"] is True
        assert summary["skipped_records"] > 0
    assert on[2][3]["engaged"] is False


#: The four Figure-14 configurations.
FIG14 = (FrontEndConfig(),
         FrontEndConfig(skia=SkiaConfig(decode_tails=False)),
         FrontEndConfig(skia=SkiaConfig(decode_heads=False)),
         FrontEndConfig(skia=SkiaConfig()))


@pytest.fixture(scope="module")
def voter():
    return build_program("voter", seed=0), build_trace("voter", 3_000,
                                                       seed=0)


def _count_tage_updates(monkeypatch) -> list:
    calls = []
    update = TageLite.update

    def counted(self, pc, taken):
        calls.append(pc)
        return update(self, pc, taken)

    monkeypatch.setattr(TageLite, "update", counted)
    return calls


def _conditionals(compiled) -> int:
    cond = CODE_BY_KIND[BranchKind.DIRECT_COND]
    kinds = compiled.block_table["kind"].tolist()
    return sum(kinds[block] == cond for block in compiled.blocks)


class TestOnePassPerGroup:
    def test_fig14_lanes_share_one_tage_pass(self, voter, monkeypatch):
        program, compiled = voter
        calls = _count_tage_updates(monkeypatch)
        batch = BatchedFrontEndSimulator()
        for config in FIG14:
            batch.add_lane(FrontEndSimulator(program, config, seed=0),
                           compiled, warmup=500)
        batch.run()
        assert len(calls) == _conditionals(compiled)

    def test_two_setups_give_two_passes(self, voter, monkeypatch):
        program, compiled = voter
        calls = _count_tage_updates(monkeypatch)
        batch = BatchedFrontEndSimulator()
        for config in FIG14:
            for ras_depth in (16, 32):
                batch.add_lane(FrontEndSimulator(
                    program, dataclasses.replace(config, ras_depth=ras_depth),
                    seed=0), compiled, warmup=500)
        batch.run()
        assert len(calls) == 2 * _conditionals(compiled)

    def test_every_lane_ends_with_the_oracle_predictors(self, voter):
        program, compiled = voter
        batch = BatchedFrontEndSimulator()
        simulators = [FrontEndSimulator(program, config, seed=0)
                      for config in FIG14]
        for simulator in simulators:
            batch.add_lane(simulator, compiled, warmup=500)
        batch.run()
        oracle = FrontEndSimulator(program, FIG14[0], seed=0)
        oracle.run_compiled(compiled, warmup=500)
        expected = batch_mod._predictor_setup(oracle)
        for simulator in simulators:
            assert batch_mod._predictor_setup(simulator) == expected


def _predictor_objects(simulator) -> list:
    return [p for p in batch_mod._predictors(simulator) if p is not None]


class TestGroupKey:
    def test_every_predictor_attribute_is_in_the_key(self):
        # Structural: perturbing any attribute of a warm predictor --
        # geometry, counter or state, or a slot of one of its entries --
        # changes the setup two lanes must share to share a pass.  (The
        # tuple-valued geometry enters the key as it is.)  An attribute
        # with nothing to perturb in one config must be checked in
        # another.
        seen, checked = set(), set()
        for config in COVERAGE_CONFIGS.values():
            simulator = _warm(config)
            before = batch_mod._predictor_setup(simulator)
            for predictor in _predictor_objects(simulator):
                owners = [(predictor, attr) for attr in vars(predictor)]
                for attr in vars(predictor):
                    entry = _first_entry(getattr(predictor, attr))
                    if entry is not None:
                        owners += [(entry, slot) for slot in entry.__slots__]
                for owner, attr in owners:
                    value = getattr(owner, attr)
                    if isinstance(value, tuple):
                        continue
                    name = (type(owner).__name__, attr)
                    seen.add(name)
                    changed = _perturbed(value)
                    if changed is None:
                        continue
                    setattr(owner, attr, changed)
                    try:
                        moved = (batch_mod._predictor_setup(simulator)
                                 != before)
                    finally:
                        setattr(owner, attr, value)
                    assert moved, f"{name} is not in the group key"
                    checked.add(name)
        assert seen == checked, f"never exercised: {seen - checked}"

    def test_tage_seed_and_warm_start_split_groups(self, voter):
        program, compiled = voter
        fresh = FrontEndSimulator(program, FIG14[0], seed=0)
        reseeded = FrontEndSimulator(program, FIG14[0], seed=1)
        warm = FrontEndSimulator(program, FIG14[0], seed=0)
        warm.run_compiled(compiled.prefix(200))
        keys = {batch_mod._predictor_setup(sim)
                for sim in (fresh, reseeded, warm)}
        assert len(keys) == 3
        skia = FrontEndSimulator(program, FIG14[3], seed=0)
        assert (batch_mod._predictor_setup(skia)
                == batch_mod._predictor_setup(fresh))


def _mutable_ids(value, seen=None) -> set:
    """ids of every mutable object reachable from ``value``."""
    seen = set() if seen is None else seen
    if isinstance(value, (dict, list, random.Random)) or hasattr(
            value, "__slots__"):
        if id(value) in seen:
            return seen
        seen.add(id(value))
    if isinstance(value, dict):
        for item in value.values():
            _mutable_ids(item, seen)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _mutable_ids(item, seen)
    elif hasattr(value, "__slots__"):
        for slot in value.__slots__:
            _mutable_ids(getattr(value, slot), seen)
    return seen


class TestCopyFrom:
    @pytest.mark.parametrize("config_name", sorted(COVERAGE_CONFIGS))
    def test_copy_is_equal_and_independent(self, config_name, voter):
        program, compiled = voter
        config = COVERAGE_CONFIGS[config_name]
        source = _warm(config)
        target = FrontEndSimulator(program, config, seed=3)
        pairs = list(zip(_predictor_objects(target),
                         _predictor_objects(source)))
        for copy, original in pairs:
            copy.copy_from(original)
        assert (batch_mod._predictor_setup(target)
                == batch_mod._predictor_setup(source))
        for copy, original in pairs:
            # Every field the structural coverage test walks is copied,
            # and nothing mutable is shared with the source.
            assert vars(copy).keys() == vars(original).keys()
            assert not (_mutable_ids(tuple(vars(copy).values()))
                        & _mutable_ids(tuple(vars(original).values())))
        copied = batch_mod._predictor_setup(target)
        source.run_compiled(compiled)
        assert batch_mod._predictor_setup(source) != copied
        assert batch_mod._predictor_setup(target) == copied
