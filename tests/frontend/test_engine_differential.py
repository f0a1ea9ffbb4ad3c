"""Differential property: the lane kernel against the ``run_compiled`` oracle.

Small generated programs are replayed under random ``FrontEndConfig``
draws -- BTB and SBB geometry, head/tail decoding on or off, a
Section 7.1 comparator or none, lockstep chunks down to one record and
a warm-up boundary anywhere, usually inside a chunk.  With attribution,
an event trace and a timeline recorder attached, both engines must keep
the same outcome and stage-time rows for every record and render the
same attribution artifact, events and timeline; the artifact folded from the rows must equal the one the
events rebuild; and observing a run must not change it: ``SimStats``
and the metric snapshot of an observed run equal an unobserved kernel
run outside the ``trace.`` scope.

A second property puts several drawn configs on one trace in one batch,
so lanes share a predictor setup or differ in it (RAS depth, the loop
predictor, TAGE history lengths, the TAGE seed, a warm start), and one
lane may carry the divergence bisector's per-window state probe.  Each
lane must equal its own ``run_compiled`` and end with the oracle's
predictor state.
"""

import dataclasses
from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend.batch import BatchedFrontEndSimulator
from repro.frontend.comparators import COMPARATOR_NAMES
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.obs import (
    AttributionAggregator,
    EventTrace,
    IntervalCollector,
    TimelineRecorder,
)
from repro.obs.digests import state_digest
from repro.workloads.codegen import ProgramGenerator
from repro.workloads.compiled import CompiledTrace
from repro.workloads.trace import TraceGenerator
from tests.conftest import MICRO_PROFILE

RECORDS = 1_200


@lru_cache(maxsize=None)
def _workload(seed: int):
    program = ProgramGenerator(MICRO_PROFILE, seed=seed).generate()
    generator = TraceGenerator(program, seed=seed)
    return program, CompiledTrace.from_stream(generator.columns,
                                              *generator.stream(RECORDS))


def _sbb(draw, prefix: str) -> dict:
    assoc = draw(st.sampled_from((1, 2, 4)))
    entries = draw(st.sampled_from((0, assoc, 4 * assoc, 64, 768)))
    return {f"{prefix}_entries": max(entries, assoc) if entries else 0,
            f"{prefix}_assoc": assoc}


@st.composite
def configs(draw) -> FrontEndConfig:
    btb_assoc = draw(st.sampled_from((1, 2, 4)))
    config = FrontEndConfig(
        btb_entries=btb_assoc * draw(st.sampled_from((8, 64, 512))),
        btb_assoc=btb_assoc,
        btb_tag_bits=draw(st.sampled_from((4, 10))),
        btb_infinite=draw(st.booleans()),
        comparator=draw(st.one_of(st.none(),
                                  st.sampled_from(COMPARATOR_NAMES))))
    if draw(st.booleans()):
        config = config.with_skia(SkiaConfig(
            decode_heads=draw(st.booleans()),
            decode_tails=draw(st.booleans()),
            use_retired_bit=draw(st.booleans()),
            **_sbb(draw, "usbb"), **_sbb(draw, "rsbb")))
    return config


def _observed(simulator: FrontEndSimulator):
    """Attach attribution, an event trace and a timeline recorder, and
    keep the outcome and stage-time rows the run renders them from."""
    simulator.attach_attribution()
    simulator.attach_trace(EventTrace(capacity=1_000_000))
    simulator.attach_timeline(TimelineRecorder(capacity=1_000_000))
    kept_rows, kept_times = [], []
    render = simulator._render_outcomes

    def keep(compiled, rows, times, warmup):
        kept_rows.extend(rows)
        kept_times.extend(times)
        render(compiled, rows, times, warmup)
    simulator._render_outcomes = keep
    return kept_rows, kept_times


def _kernel(simulator, compiled, warmup, chunk):
    batch = BatchedFrontEndSimulator(chunk_records=chunk)
    batch.add_lane(simulator, compiled, warmup=warmup)
    return batch.run()[0]


def _untraced(snapshot: dict) -> dict:
    return {key: value for key, value in snapshot.items()
            if not key.startswith("trace.")}


@given(seed=st.integers(0, 3), config=configs(),
       chunk=st.one_of(st.integers(1, 8), st.integers(9, 700)),
       warmup=st.integers(0, RECORDS - 1))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_kernel_matches_oracle_outcomes(seed, config, chunk, warmup):
    program, compiled = _workload(seed)

    oracle = FrontEndSimulator(program, config, seed=seed)
    oracle_rows, oracle_times = _observed(oracle)
    oracle_stats = oracle.run_compiled(compiled, warmup=warmup)

    kernel = FrontEndSimulator(program, config, seed=seed)
    kernel_rows, kernel_times = _observed(kernel)
    kernel_stats = _kernel(kernel, compiled, warmup, chunk)

    plain = FrontEndSimulator(program, config, seed=seed)
    plain_stats = _kernel(plain, compiled, warmup, chunk)

    assert len(kernel_rows) == compiled.n_records
    assert kernel_rows == oracle_rows
    assert kernel_times == oracle_times
    assert list(kernel.timeline) == list(oracle.timeline)
    assert kernel.timeline.emitted == oracle.timeline.emitted
    assert (kernel.attribution.to_jsonable()
            == oracle.attribution.to_jsonable())
    assert kernel.trace.events() == oracle.trace.events()
    rebuilt = AttributionAggregator.for_simulation(program, config,
                                                   warmup=warmup)
    for event in kernel.trace:
        rebuilt.observe(event)
    assert rebuilt.to_jsonable() == kernel.attribution.to_jsonable()
    expected = dataclasses.asdict(plain_stats)
    assert dataclasses.asdict(oracle_stats) == expected
    assert dataclasses.asdict(kernel_stats) == expected
    snapshot = plain.metrics_snapshot()
    assert _untraced(oracle.metrics_snapshot()) == snapshot
    assert _untraced(kernel.metrics_snapshot()) == snapshot


#: Predictor setups the multi-lane property draws from, few enough that
#: lanes often share one.
_SETUPS = st.fixed_dictionaries({
    "ras_depth": st.sampled_from((4, 32)),
    "use_loop_predictor": st.booleans(),
    "tage_history_lengths": st.sampled_from(((5, 15, 44, 130), (3, 9, 27))),
})

_PREDICTORS = ("tage", "ittage", "loop", "ras")


@st.composite
def lanes(draw) -> list[dict]:
    drawn = [{"config": dataclasses.replace(draw(configs()), **draw(_SETUPS)),
              "seed": draw(st.integers(0, 1)),
              "warm": draw(st.booleans()),
              "probe": False}
             for _ in range(draw(st.integers(2, 4)))]
    if draw(st.booleans()):
        drawn[draw(st.integers(0, len(drawn) - 1))]["probe"] = True
    return drawn


def _lane_simulator(program, compiled, lane: dict) -> FrontEndSimulator:
    """A simulator for one drawn lane: optionally warmed on a prefix of
    the trace, optionally carrying a per-window state probe."""
    simulator = FrontEndSimulator(program, lane["config"], seed=lane["seed"])
    if lane["warm"]:
        simulator.run_compiled(compiled.prefix(300))
    if lane["probe"]:
        simulator.attach_intervals(IntervalCollector(
            97, state_probe=lambda: state_digest(simulator)))
    return simulator


def _predictor_states(simulator) -> dict:
    structures = simulator.structures()
    return {name: structures[name].state(0.0)
            for name in _PREDICTORS if name in structures}


@given(seed=st.integers(0, 3), drawn=lanes(),
       chunk=st.one_of(st.integers(1, 8), st.integers(9, 700)),
       warmup=st.integers(0, RECORDS - 1))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_lanes_sharing_a_trace_match_their_oracles(seed, drawn, chunk,
                                                   warmup):
    program, compiled = _workload(seed)

    batch = BatchedFrontEndSimulator(chunk_records=chunk)
    kernels = []
    for lane in drawn:
        simulator = _lane_simulator(program, compiled, lane)
        rows = _observed(simulator)
        batch.add_lane(simulator, compiled, warmup=warmup)
        kernels.append((simulator, rows))
    results = batch.run()

    for lane, (kernel, kernel_rows), kernel_stats in zip(drawn, kernels,
                                                         results):
        oracle = _lane_simulator(program, compiled, lane)
        oracle_rows = _observed(oracle)
        oracle_stats = oracle.run_compiled(compiled, warmup=warmup)
        assert dataclasses.asdict(kernel_stats) == \
            dataclasses.asdict(oracle_stats)
        assert kernel.metrics_snapshot() == oracle.metrics_snapshot()
        assert kernel_rows == oracle_rows
        assert _predictor_states(kernel) == _predictor_states(oracle)
        if lane["probe"]:
            assert kernel.intervals.state_marks == \
                oracle.intervals.state_marks
