"""Cycle fast-forwarding: detection, digests, exactness, fallbacks.

The contract under test: with ``REPRO_FASTFORWARD`` on (the default),
both engines -- the ``run_compiled`` oracle (also over object records
lowered by ``from_records``) and the batched lane kernel -- produce
byte-identical ``SimStats``, metric snapshots and interval series to a
non-fast-forwarded run, whether or not a skip engages; and
every ineligible run falls back to plain stepping with a counted reason
instead of wrong numbers.
"""

import dataclasses
import enum
import functools
import random

import pytest

from repro.frontend import fastforward
from repro.frontend.batch import run_compiled_batched
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.harness.parallel import Cell
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import Scale
from repro.obs import EventTrace, TimelineRecorder, digests, divergence
from repro.workloads import WORKLOAD_NAMES, build_program, build_trace
from repro.workloads.cache import WorkloadCache
from tests.workloads.records import as_records, from_records

#: The exactly-periodic workload (round-robin dispatch, no stochastic
#: branches) whose cells actually engage a skip.
STEADY = "steady-stream"
RECORDS = 24_000
WARMUP = 500

CONFIGS = {
    "base": FrontEndConfig(),
    "skia": FrontEndConfig(skia=SkiaConfig()),
}


@functools.lru_cache(maxsize=2)
def _steady(seed, n_records=RECORDS):
    compiled = build_trace(STEADY, n_records, seed=seed)
    return (build_program(STEADY, seed=seed), as_records(compiled),
            compiled)


@pytest.fixture(scope="module")
def steady():
    return _steady(0)


def _run(program, compiled, config, engine, monkeypatch, on,
         warmup=WARMUP):
    monkeypatch.setenv("REPRO_FASTFORWARD", "1" if on else "0")
    simulator = FrontEndSimulator(program, config, seed=0)
    if engine == "compiled":
        stats = simulator.run_compiled(compiled, warmup=warmup)
    elif engine == "object":
        stats = simulator.run_compiled(from_records(as_records(compiled)),
                                       warmup=warmup)
    else:
        stats = run_compiled_batched(simulator, compiled, warmup=warmup)
    series = (simulator.intervals.series().to_json_text()
              if simulator.intervals is not None else None)
    return (dataclasses.asdict(stats), simulator.metrics_snapshot(),
            series, simulator.fastforward_summary)


# ----------------------------------------------------------------------
# Period detection
# ----------------------------------------------------------------------

class TestPeriodDetection:
    def test_steady_trace_is_exactly_periodic(self, steady):
        _, records, compiled = steady
        detected = compiled.period()
        assert detected is not None
        period, preamble = detected
        assert preamble == 0
        # The detected period really is a column-level cycle.
        for index in range(period, min(len(records), 2 * period + 64)):
            assert records[index] == records[index - period]

    def test_period_is_cached_on_the_trace(self, steady):
        _, _, compiled = steady
        assert compiled.period() is not None
        assert compiled._period_cache == compiled.period()

    def test_aperiodic_stock_trace_has_no_period(self):
        assert build_trace("voter", 6_000, seed=0).period() is None

    def test_trace_shorter_than_two_periods_has_no_period(self):
        compiled = build_trace(STEADY, 24_000, seed=0)
        period, _ = compiled.period()
        assert compiled.prefix(period + period // 2).period() is None

    def test_every_steady_seed_has_a_period(self):
        # On some seeds (8, 18, 20, ...) the 16-record tail needle recurs
        # many times within one period; the detector must try every
        # candidate rather than give up after a fixed number.
        cache = WorkloadCache(max_traces=1)
        missed = [seed for seed in range(40)
                  if cache.compiled(STEADY, RECORDS, seed=seed).period()
                  is None]
        cache.clear()
        assert missed == []


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------

#: Per class: instance attributes fixed at construction (geometry,
#: names, masks, references to sub-structures).  Every other attribute
#: of a listed structure must be in its ``COUNTERS`` or feed its
#: ``state(base)``.  Entry records count too: a ``tag`` that only
#: mirrors the entry's dict key is redundant.
CONSTANTS = {
    "BranchTargetBuffer": {"assoc", "tag_bits", "entry_bits", "infinite",
                           "n_sets", "entries"},
    "SetAssociativeCache": {"name", "line_size", "assoc", "n_sets"},
    "CacheHierarchy": {"l1i", "l2", "l3", "l2_latency", "l3_latency",
                       "memory_latency", "line_size"},
    "TageLite": {"table_bits", "tag_bits", "history_lengths", "table_mask",
                 "tag_mask", "_history_masks"},
    "LoopPredictor": {"entries", "confidence_threshold", "max_trip"},
    "ITTageLite": {"table_bits", "history_lengths", "table_mask",
                   "tag_mask", "_history_masks"},
    "ReturnAddressStack": {"depth"},
    "SBBStructure": {"name", "use_retired_bit", "assoc", "tag_bits",
                     "entry_bits", "n_sets", "entries"},
    "BTBEntry": {"tag"},
    "SBBEntry": {"tag"},
}

#: Configs whose structures the coverage test walks: the default config
#: (which carries the loop predictor), Skia, and the infinite BTB (the
#: only one whose full-tag table is populated).
COVERAGE_CONFIGS = {
    "base": FrontEndConfig(use_loop_predictor=True),
    "skia": FrontEndConfig(skia=SkiaConfig()),
    "infinite-btb": FrontEndConfig(btb_infinite=True),
}


@functools.lru_cache(maxsize=1)
def _voter(n_records=400):
    return build_program("voter", seed=0), build_trace("voter", n_records,
                                                       seed=0)


def _warm(config=CONFIGS["skia"]):
    """A simulator after a 400-record voter warm-up."""
    program, compiled = _voter()
    simulator = FrontEndSimulator(program, config, seed=0)
    simulator.run_compiled(compiled, warmup=0)
    return simulator


def _perturbed(value):
    """A changed copy of ``value``; None when it holds nothing to change."""
    if isinstance(value, enum.Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if value is None:
        return 0
    if isinstance(value, random.Random):
        rng = random.Random()
        rng.setstate(value.getstate())
        rng.random()
        return rng
    if isinstance(value, dict):
        if not value:
            return None
        changed = dict(value)
        changed.pop(next(reversed(changed)))
        return changed
    if isinstance(value, list):
        for index, item in enumerate(value):
            changed = _perturbed(item)
            if changed is not None:
                return value[:index] + [changed] + value[index + 1:]
        return None
    raise TypeError(f"no perturbation for {type(value).__name__}")


def _first_entry(value):
    """The first entry record in a dict or a list of dicts, if any."""
    for way in (value if isinstance(value, list) else [value]):
        if isinstance(way, dict):
            for entry in way.values():
                if hasattr(entry, "__slots__"):
                    return entry
    return None


def _first_ready(level):
    """``(set, line)`` of the first resident line of a cache level."""
    return next((way, line) for way in level._sets for line in way)


def _probe(simulator, base):
    state = fastforward.ProbeState(base, base, base, base, [], True, 0, 0, 0)
    return digests.probe_digest(simulator, state, base)


def _retarget_btb(simulator, base):
    entry = _first_entry(simulator.bpu.btb._sets)
    entry.target = (entry.target or 0) + 4


def _bump_tage_ctr(simulator, base):
    entry = next(e for table in simulator.bpu.tage.tables
                 for e in table.values())
    entry.ctr = entry.ctr + 1 if entry.ctr < 3 else entry.ctr - 1


def _flip_retired(simulator, base):
    sbb = simulator.skia.sbb
    entry = next(e for half in (sbb.usbb, sbb.rsbb)
                 for way in half._sets for e in way.values())
    entry.retired = not entry.retired


def _set_l2_ready(delta):
    def change(simulator, base):
        way, line = _first_ready(simulator.hierarchy.l2)
        way[line] = base + delta
    return change


#: One change per structure after warm-up:
#: ``name -> (change, moves probe_digest, moves state_digest)``.
DIGEST_CHANGES = {
    "btb target": (_retarget_btb, True, True),
    "tage ctr": (_bump_tage_ctr, True, False),
    "tage rng": (lambda sim, base: sim.bpu.tage._rng.random(), True, False),
    "sbb retired bit": (_flip_retired, True, True),
    "future l2 ready time": (_set_l2_ready(7), True, False),
    "past l2 ready time": (_set_l2_ready(-3), False, False),
}


class TestDigests:
    def test_divergence_reexports_the_same_state_digest(self):
        # The promotion to obs.digests must not change a single hash:
        # the re-export *is* the promoted function.
        assert divergence.state_digest is digests.state_digest

    def test_state_digest_identical_across_import_paths(self, steady):
        program, _, compiled = steady
        simulator = FrontEndSimulator(program, CONFIGS["skia"], seed=0)
        simulator.run_compiled(compiled.prefix(500), warmup=100)
        assert (divergence.state_digest(simulator)
                == digests.state_digest(simulator))

    def test_probe_digest_reflects_structure_state(self, steady):
        program, _, compiled = steady

        def probe(n_records):
            simulator = FrontEndSimulator(program, CONFIGS["skia"], seed=0)
            simulator.run_compiled(compiled.prefix(n_records), warmup=0)
            state = fastforward.ProbeState(
                0.0, 0.0, 0.0, 0.0, [], True, 0, 0, 0)
            return digests.probe_digest(simulator, state, 0.0)

        assert probe(400) == probe(400)
        assert probe(400) != probe(401)

        # The probe base sits at an L2 line's ready time, so that line
        # is "past" and every later-dated timestamp is "future".
        reference = _warm()
        way, line = _first_ready(reference.hierarchy.l2)
        base = way[line]
        for name, (change, probe_moves, state_moves) in \
                DIGEST_CHANGES.items():
            simulator = _warm()
            assert _probe(simulator, base) == _probe(reference, base)
            change(simulator, base)
            assert (_probe(simulator, base)
                    != _probe(reference, base)) == probe_moves, name
            assert (digests.state_digest(simulator)
                    != digests.state_digest(reference)) == state_moves, name

    def test_every_field_is_counted_constant_or_digested(self):
        # Structural coverage: perturbing any attribute outside COUNTERS
        # and CONSTANTS -- of a structure or of one of its entry records
        # -- after warm-up must change state(base).  An attribute empty
        # in one config must be verified in another.
        failures, verified, empty = [], set(), set()

        def check(owner, attr, structure, before):
            key = (type(owner).__name__, attr)
            value = getattr(owner, attr)
            changed = _perturbed(value)
            if changed is None:
                empty.add(key)
                return
            setattr(owner, attr, changed)
            try:
                moved = structure.state(0.0) != before
            finally:
                setattr(owner, attr, value)
            if moved:
                verified.add(key)
            else:
                failures.append(key)

        for config in COVERAGE_CONFIGS.values():
            for structure in _warm(config).structures().values():
                before = structure.state(0.0)
                constants = CONSTANTS[type(structure).__name__]
                for name in structure.COUNTERS:
                    assert isinstance(getattr(structure, name), int), name
                for attr in vars(structure):
                    if attr in structure.COUNTERS or attr in constants:
                        continue
                    check(structure, attr, structure, before)
                    entry = _first_entry(getattr(structure, attr))
                    if entry is None:
                        continue
                    for slot in entry.__slots__:
                        if slot not in CONSTANTS.get(type(entry).__name__,
                                                     ()):
                            check(entry, slot, structure, before)
        assert failures == [], f"fields missing from state(): {failures}"
        assert empty <= verified, f"never exercised: {empty - verified}"


# ----------------------------------------------------------------------
# SimStats periodic advance
# ----------------------------------------------------------------------

class TestAdvancePeriodic:
    def test_scalars_and_dicts_scale_exactly(self):
        from repro.frontend.stats import SimStats
        from repro.isa.branch import BranchKind

        stats = SimStats()
        stats.btb_lookups = 10
        stats.cycles = 2.5
        stats.branches[BranchKind.CALL] = 4
        stats.resteer_causes["cond_mispredict"] = 3
        snapshot = stats.snapshot_state()
        stats.btb_lookups = 16
        stats.cycles = 4.0
        stats.branches[BranchKind.CALL] = 7
        stats.resteer_causes["cond_mispredict"] = 5
        stats.resteer_causes["btb_alias"] = 2  # born inside the period
        stats.advance_periodic(snapshot, 3)
        assert stats.btb_lookups == 16 + 3 * 6
        assert stats.cycles == 4.0 + 3 * 1.5
        assert stats.branches[BranchKind.CALL] == 7 + 3 * 3
        assert stats.resteer_causes["cond_mispredict"] == 5 + 3 * 2
        assert stats.resteer_causes["btb_alias"] == 2 + 3 * 2


# ----------------------------------------------------------------------
# On/off identity with an engaged skip
# ----------------------------------------------------------------------

class TestEngagedIdentity:
    @pytest.mark.parametrize("engine", ["compiled", "batched", "object"])
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_identity_and_skip(self, engine, config_name, monkeypatch):
        config = CONFIGS[config_name]
        # Seed 8's tail needle recurs within its 6227-record period,
        # which once hid the period from the detector; 32k records leave
        # room for the probe whose digest repeats.
        for seed, n_records in ((0, RECORDS), (8, 32_000)):
            program, _, compiled = _steady(seed, n_records)
            on = _run(program, compiled, config, engine, monkeypatch, True)
            off = _run(program, compiled, config, engine, monkeypatch, False)
            assert on[0] == off[0], ("SimStats diverged", seed)
            assert on[1] == off[1], ("metric snapshot diverged", seed)
            assert on[3]["engaged"] is True, seed
            assert on[3]["skipped_records"] > 0, seed
            assert off[3] == {"engaged": False, "reason": "disabled by env"}

    def test_interval_series_identity_window_divides_period(
            self, steady, monkeypatch):
        # Window 5 divides the steady period, so the quantum stays one
        # period and the skip synthesises whole windows.
        program, records, compiled = steady
        config = FrontEndConfig(interval_size=5)
        on = _run(program, compiled, config, "compiled",
                  monkeypatch, True)
        off = _run(program, compiled, config, "compiled",
                   monkeypatch, False)
        assert on[3]["engaged"] and on[3]["skipped_records"] > 0
        assert on[0] == off[0]
        assert on[2] == off[2], "interval series diverged"

    def test_interval_series_identity_window_not_dividing_period(
            self, steady, monkeypatch):
        # Window 2 does not divide the (odd) period: the quantum widens
        # to lcm(period, 2) = 2 periods so probes keep landing at the
        # same window offset.  Identity must hold whether or not the
        # wider quantum still finds a repeat in this trace.
        program, records, compiled = steady
        period, _ = compiled.period()
        assert period % 2 == 1
        config = FrontEndConfig(interval_size=2)
        on = _run(program, compiled, config, "compiled",
                  monkeypatch, True)
        off = _run(program, compiled, config, "compiled",
                   monkeypatch, False)
        assert on[3]["engaged"] is True
        assert on[3]["quantum"] == 2 * period
        assert on[0] == off[0]
        assert on[2] == off[2]

    def test_warmup_boundary_inside_first_period(self, steady,
                                                 monkeypatch):
        program, records, compiled = steady
        period, _ = compiled.period()
        warmup = period // 3
        on = _run(program, compiled, CONFIGS["base"], "compiled",
                  monkeypatch, True, warmup=warmup)
        off = _run(program, compiled, CONFIGS["base"], "compiled",
                   monkeypatch, False, warmup=warmup)
        assert on[3]["engaged"] and on[3]["skipped_records"] > 0
        assert on[0] == off[0]
        assert on[1] == off[1]


# ----------------------------------------------------------------------
# Fallbacks
# ----------------------------------------------------------------------

class TestFallbacks:
    def test_trace_too_short_for_the_probe_quantum(self, steady,
                                                   monkeypatch):
        program, _, compiled = steady
        period, _ = compiled.period()
        monkeypatch.setenv("REPRO_FASTFORWARD", "1")
        short = compiled.prefix(period * 2)  # periodic, no room to probe
        simulator = FrontEndSimulator(program, CONFIGS["base"], seed=0)
        stats = simulator.run_compiled(short, warmup=period)
        reason = simulator.fastforward_summary["reason"]
        assert reason in ("trace too short for the probe quantum",
                          "no detected period")
        monkeypatch.setenv("REPRO_FASTFORWARD", "0")
        oracle = FrontEndSimulator(program, CONFIGS["base"], seed=0)
        expected = oracle.run_compiled(short, warmup=period)
        assert dataclasses.asdict(stats) == dataclasses.asdict(expected)

    def test_digest_never_repeats_falls_back_cleanly(self, steady,
                                                     monkeypatch):
        program, records, compiled = steady
        off = _run(program, compiled, CONFIGS["base"],
                   "compiled", monkeypatch, False)
        counter = iter(range(10 ** 9))

        def unique_digest(simulator, state, base):
            return next(counter).to_bytes(8, "little")

        monkeypatch.setattr(fastforward, "probe_digest", unique_digest)
        on = _run(program, compiled, CONFIGS["base"],
                  "compiled", monkeypatch, True)
        summary = on[3]
        assert summary["engaged"] is True
        assert summary["reason"] == "digest never repeated"
        assert summary["skipped_records"] == 0
        assert on[0] == off[0]
        assert on[1] == off[1]

    def test_fallbacks_are_counted(self, steady, monkeypatch):
        program, records, compiled = steady
        fastforward.reset_reasons()
        _run(program, compiled, CONFIGS["base"], "compiled", monkeypatch,
             False)
        assert fastforward.reason_counts() == {"disabled by env": 1}
        fastforward.reset_reasons()

    def test_dense_artifacts_disable_fast_forward(self, steady,
                                                  monkeypatch):
        # Each artifact observes every record, so a skip would lose its
        # output: the run steps every record and reports why.
        program, _, steady_trace = steady
        compiled = steady_trace.prefix(2_000)
        monkeypatch.setenv("REPRO_FASTFORWARD", "1")
        for reason, attach in (
                ("event trace attached",
                 lambda sim: sim.attach_trace(EventTrace())),
                ("timeline recorder attached",
                 lambda sim: sim.attach_timeline(TimelineRecorder())),
                ("attribution attached",
                 lambda sim: sim.attach_attribution())):
            simulator = FrontEndSimulator(program, CONFIGS["base"], seed=0)
            attach(simulator)
            simulator.run_compiled(compiled, warmup=WARMUP)
            assert simulator.fastforward_summary == {
                "engaged": False, "reason": reason}

    def test_env_kill_switch(self, steady, monkeypatch):
        program, _, compiled = steady
        for value in ("0", "false", "No", "OFF"):
            monkeypatch.setenv("REPRO_FASTFORWARD", value)
            simulator = FrontEndSimulator(program, CONFIGS["base"], seed=0)
            run_compiled_batched(simulator, compiled, warmup=WARMUP)
            assert simulator.fastforward_summary == {
                "engaged": False, "reason": "disabled by env"}, value


# ----------------------------------------------------------------------
# Full Figure-14 grid, fast-forward on vs off, serial and parallel
# ----------------------------------------------------------------------

GRID_CONFIGS = (
    FrontEndConfig(),
    FrontEndConfig(skia=SkiaConfig(decode_tails=False)),
    FrontEndConfig(skia=SkiaConfig(decode_heads=False)),
    FrontEndConfig(skia=SkiaConfig()),
)
GRID_RECORDS = 1_000
GRID_WARMUP = 150


@pytest.mark.parametrize("workload", WORKLOAD_NAMES + (STEADY,))
def test_fig14_grid_on_off_identity(workload, monkeypatch):
    """Stats + metrics + interval series identical, on vs off, per cell."""
    program = build_program(workload, seed=0)
    compiled = build_trace(workload, GRID_RECORDS, seed=0)
    for config in GRID_CONFIGS:
        config = dataclasses.replace(config, interval_size=100)
        for engine in ("compiled", "batched"):
            on = _run(program, compiled, config, engine,
                      monkeypatch, True, warmup=GRID_WARMUP)
            off = _run(program, compiled, config, engine,
                       monkeypatch, False, warmup=GRID_WARMUP)
            assert on[0] == off[0], (workload, engine)
            assert on[1] == off[1], (workload, engine)
            assert on[2] == off[2], (workload, engine)


class TestHarnessGrid:
    """The harness plumbing preserves on/off identity, serial + parallel."""

    SCALE = Scale("ff-equiv", records=GRID_RECORDS, warmup=GRID_WARMUP)
    CELLS = [Cell(workload, config, 0, False)
             for workload in WORKLOAD_NAMES[:3] + (STEADY,)
             for config in GRID_CONFIGS]

    def _stats(self, jobs, monkeypatch, on):
        monkeypatch.setenv("REPRO_FASTFORWARD", "1" if on else "0")
        runner = ExperimentRunner(scale=self.SCALE, store=None)
        return runner.run_cells(self.CELLS, jobs=jobs)

    def test_serial_identity(self, monkeypatch):
        reference = self._stats(1, monkeypatch, False)
        fast = self._stats(1, monkeypatch, True)
        for expect, got, cell in zip(reference, fast, self.CELLS):
            assert dataclasses.asdict(got) == dataclasses.asdict(expect), \
                cell

    def test_parallel_identity(self, monkeypatch):
        reference = self._stats(1, monkeypatch, False)
        fast = self._stats(2, monkeypatch, True)
        for expect, got, cell in zip(reference, fast, self.CELLS):
            assert dataclasses.asdict(got) == dataclasses.asdict(expect), \
                cell
