"""Component micro-benchmarks: throughput of the building blocks.

These are conventional pytest-benchmark timings (ops/sec) rather than
paper exhibits; they guard against performance regressions in the hot
paths that dominate experiment runtime.
"""

import random

import pytest

from repro.core import decode_tables
from repro.core.sbb import ShadowBranchBuffer
from repro.core.sbd import ShadowBranchDecoder
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.frontend.predictor import ITTageLite, TageLite
from repro.harness.experiments import exhibit_cells
from repro.harness.parallel import Cell
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import Scale, current_scale
from repro.harness.store import ResultStore
from repro.isa.decoder import Decoder, decode_at
from repro.isa.encoder import Encoder
from repro.workloads.cache import WorkloadCache
from repro.workloads.codegen import ProgramGenerator
from repro.workloads.profiles import get_profile
from repro.workloads.trace import TraceGenerator
from tests.conftest import MICRO_PROFILE


@pytest.fixture(scope="module")
def program():
    return ProgramGenerator(MICRO_PROFILE, seed=7).generate()


@pytest.fixture(scope="module")
def trace(program):
    return TraceGenerator(program, seed=7).records(6_000)


def test_decode_throughput(benchmark, program):
    image = program.image
    offsets = list(range(0, min(len(image), 4096)))

    def decode_window():
        for offset in offsets:
            decode_at(image, offset)

    benchmark(decode_window)


def test_decoder_memo_throughput(benchmark, program):
    """The memoised Decoder on a hot window: after the first pass every
    decode is an LRU hit, and the instance counters prove it."""
    decoder = Decoder(program.image, base_pc=program.base_address)
    offsets = list(range(0, min(len(program.image), 4096)))

    def decode_window():
        for offset in offsets:
            decoder.decode(offset)

    benchmark(decode_window)
    stats = decoder.memo_stats
    assert stats.hits > stats.misses  # repeat passes hit the memo
    assert stats.misses >= len(offsets)  # each offset decoded once
    print(stats.render("decoder memo"))


def test_decoder_memo_bounded(program):
    """A memo smaller than the sweep evicts instead of growing."""
    decoder = Decoder(program.image, memo_size=256)
    for offset in range(1024):
        decoder.decode(offset)
    stats = decoder.memo_stats
    assert stats.size <= 256
    assert stats.evictions >= 1024 - 256


def test_encoder_throughput(benchmark):
    encoder = Encoder()
    rng = random.Random(0)

    def encode_batch():
        for length in (1, 2, 3, 4, 5, 6, 7, 8):
            for _ in range(50):
                encoder.filler(rng, length)

    benchmark(encode_batch)


def test_program_generation_throughput(benchmark):
    """One full-size program (voter, about 160k filler instructions):
    filler encoding, CFG construction and layout, as a cold set-up pays
    them once per workload."""
    profile = get_profile("voter")
    program = benchmark.pedantic(
        lambda: ProgramGenerator(profile).generate(), rounds=2, iterations=1)
    assert program.size > 0


def test_tage_throughput(benchmark):
    tage = TageLite()
    rng = random.Random(0)
    stream = [(rng.randrange(1 << 20) * 2, rng.random() < 0.8)
              for _ in range(2_000)]

    def run():
        for pc, taken in stream:
            tage.update(pc, taken)

    benchmark(run)


def test_ittage_throughput(benchmark):
    ittage = ITTageLite()
    rng = random.Random(0)
    stream = [(0x1000, rng.randrange(64) * 0x40) for _ in range(2_000)]

    def run():
        for pc, target in stream:
            ittage.update(pc, target)

    benchmark(run)


def test_sbb_insert_lookup_throughput(benchmark):
    sbb = ShadowBranchBuffer(SkiaConfig())
    pcs = [0x400000 + offset * 7 for offset in range(2_000)]

    def run():
        for pc in pcs:
            sbb.insert_unconditional(pc, pc + 64)
            sbb.lookup(pc)

    benchmark(run)


def test_sbd_head_decode_throughput(benchmark, program):
    sbd = ShadowBranchDecoder(program.image, program.base_address,
                              SkiaConfig())
    entries = [program.base_address + line * 64 + offset
               for line in range(0, 40)
               for offset in (7, 23, 41)]

    def run():
        sbd._head_memo.clear()
        for entry in entries:
            sbd.decode_head(entry)

    benchmark(run)
    for name, stats in sbd.cache_stats().items():
        print(stats.render(f"sbd {name}"))


def test_sbd_tail_decode_throughput(benchmark, program):
    sbd = ShadowBranchDecoder(program.image, program.base_address,
                              SkiaConfig())
    exits = [program.base_address + line * 64 + offset
             for line in range(0, 40)
             for offset in (5, 19, 47)]

    def run():
        sbd._tail_memo.clear()
        for exit_pc in exits:
            sbd.decode_tail(exit_pc)

    benchmark(run)


def test_sbd_cold_line_decode_throughput(benchmark, program):
    """Cold line decodes: each round empties the process-wide decode
    tables and builds a fresh decoder, so every head and tail decode
    pays the per-line decode of its line (the head/tail benchmarks
    above keep the line cache warm and never time it)."""
    entries = [program.base_address + line * 64 + 23
               for line in range(0, 40)]

    def run():
        decode_tables.reset()
        sbd = ShadowBranchDecoder(program.image, program.base_address,
                                  SkiaConfig())
        for entry in entries:
            sbd.decode_head(entry)
            sbd.decode_tail(entry)
        return sbd

    sbd = benchmark(run)
    decode_tables.reset()
    stats = sbd.cache_stats()["line_cache"]
    assert stats.misses == len(entries)  # one cold decode per line
    print(stats.render("sbd line_cache"))


def test_engine_blocks_per_second(benchmark, program, trace):
    def run():
        FrontEndSimulator(program, FrontEndConfig()).run(trace)

    benchmark.pedantic(run, rounds=2, iterations=1)


def test_engine_with_skia_blocks_per_second(benchmark, program, trace):
    def run():
        FrontEndSimulator(program,
                          FrontEndConfig(skia=SkiaConfig())).run(trace)

    benchmark.pedantic(run, rounds=2, iterations=1)


def test_batched_kernel_speedup_gate(benchmark, program, trace):
    """Hard floor: the batched lane kernel must stay >= 2x the
    ``run_compiled`` oracle loop on the Figure-14 configuration set.

    Measured with *warm* decode tables: a grid sweep builds each trace's
    table once and replays it across hundreds of cells, so steady-state
    replay is what the kernel is for -- and what must not regress.  The
    fused lane rows are not cached: each timed ``batched_grid`` fuses
    them again, one lockstep round at a time, so their cost is inside
    the measured kernel time.  Both paths are timed interleaved,
    min-of-5, in this same process, and the side that runs first
    alternates between rounds so neither always pays for the other's
    heap and cache state; the ratio of minimums tolerates absolute host
    timings that wander.
    """
    import time as _time

    from repro.frontend.batch import BatchedFrontEndSimulator
    from repro.workloads import compile_trace

    compiled = compile_trace(trace)
    configs = [FrontEndConfig(),
               FrontEndConfig(skia=SkiaConfig(decode_tails=False)),
               FrontEndConfig(skia=SkiaConfig(decode_heads=False)),
               FrontEndConfig(skia=SkiaConfig())]
    warmup = 500

    def oracle_grid():
        for config in configs:
            FrontEndSimulator(program, config, seed=0).run_compiled(
                compiled, warmup=warmup)

    def batched_grid():
        batch = BatchedFrontEndSimulator()
        for config in configs:
            batch.add_lane(FrontEndSimulator(program, config, seed=0),
                           compiled, warmup=warmup)
        batch.run()

    oracle_grid()
    batched_grid()  # warm decode tables
    timings = {oracle_grid: [], batched_grid: []}
    for round_ in range(5):
        sides = (oracle_grid, batched_grid) if round_ % 2 == 0 \
            else (batched_grid, oracle_grid)
        for side in sides:
            start = _time.perf_counter()
            side()
            timings[side].append(_time.perf_counter() - start)
    oracle_s, batched_s = timings[oracle_grid], timings[batched_grid]
    ratio = min(oracle_s) / min(batched_s)
    benchmark.extra_info["speedup_vs_oracle"] = round(ratio, 3)
    benchmark.pedantic(batched_grid, rounds=2, iterations=1)
    assert ratio >= 2.0, (
        f"batched kernel only {ratio:.2f}x run_compiled "
        f"(oracle {min(oracle_s):.3f}s, batched {min(batched_s):.3f}s); "
        f"the floor is 2x")


def test_fastforward_speedup_gate(benchmark, monkeypatch):
    """Hard floor: cycle fast-forwarding must make one long periodic
    cell >= 5x faster than stepping every record.

    ``steady-stream``'s trace repeats exactly (round-robin dispatch, no
    stochastic branches), and the cell replays far more records than a
    grid cell with a short warm-up, so skipped whole periods -- not
    period detection -- dominate.  The skip arithmetic is O(1) per run:
    anything under 5x means probing overhead regressed or the skip
    stopped engaging.  Like the kernel gate, both settings are timed
    warm, interleaved, min-of-3, in this one process; the trace build
    is outside the timed runs.
    """
    import time as _time

    scale = current_scale()
    records = max(scale.records * 8, 48_000)
    warmup = max(min(scale.warmup, records // 12), 256)
    cache = WorkloadCache()
    program = cache.program("steady-stream", seed=0)
    compiled = cache.compiled("steady-stream", records, seed=0)

    def replay(fastforward: str) -> FrontEndSimulator:
        monkeypatch.setenv("REPRO_FASTFORWARD", fastforward)
        simulator = FrontEndSimulator(program, FrontEndConfig(), seed=0)
        simulator.run_compiled(compiled, warmup=warmup)
        return simulator

    summary = replay("1").fastforward_summary
    replay("0")
    on_s, off_s = [], []
    for _ in range(3):
        start = _time.perf_counter()
        replay("1")
        on_s.append(_time.perf_counter() - start)
        start = _time.perf_counter()
        replay("0")
        off_s.append(_time.perf_counter() - start)
    ratio = min(off_s) / min(on_s)
    benchmark.extra_info["speedup_vs_full_replay"] = round(ratio, 3)
    benchmark.pedantic(replay, args=("1",), rounds=2, iterations=1)
    assert summary.get("skipped_records", 0) > 0, "the skip never engaged"
    assert ratio >= 5.0, (
        f"fast-forward only {ratio:.2f}x the full replay over {records} "
        f"records (on {min(on_s):.3f}s, off {min(off_s):.3f}s); the "
        f"floor is 5x")


def test_warm_store_pass_throughput(benchmark, tmp_path):
    """One fresh-runner pass over a 32-cell grid from a warm store: what
    re-rendering a figure costs once every cell is persisted.  Each cell
    is one store address and one entry read; nothing is simulated."""
    scale = Scale("warm-pass", records=2_000, warmup=500)
    workloads = ("noop", "voter", "tatp", "kafka")
    base = FrontEndConfig()
    cells = exhibit_cells("fig14", workloads=workloads) + [
        Cell(workload, base.with_btb_entries(entries))
        for entries in (2048, 4096, 16384, 32768) for workload in workloads]
    assert len(cells) == 32
    store = ResultStore(tmp_path / "cache")
    cache = WorkloadCache()
    ExperimentRunner(scale=scale, cache=cache, store=store,
                     jobs=1).run_cells(cells)

    def warm_pass():
        replayer = ExperimentRunner(scale=scale, cache=cache, store=store,
                                    jobs=1)
        replayer.run_cells(cells)
        for cell in cells:
            replayer.metrics_for(cell.workload, cell.config)

    benchmark(warm_pass)
    assert store.writes == len(cells)  # the fill; the passes only read
