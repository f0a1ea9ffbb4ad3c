"""The block-index stream against the record-at-a-time oracle.

Over small generated programs, trace seeds, lengths and dispatch run
ranges, compiling the generator's stream must give the columns that
compiling :class:`~tests.workloads.trace_oracle.OracleTraceGenerator`'s
records gives, and the generator must leave its RNG where the oracle
leaves it.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.codegen import ProgramGenerator
from repro.workloads.compiled import CORE_COLUMNS, CompiledTrace
from repro.workloads.trace import TraceGenerator
from tests.conftest import MICRO_PROFILE, generate_trace
from tests.workloads.records import as_records, from_records
from tests.workloads.trace_oracle import OracleTraceGenerator


@lru_cache(maxsize=None)
def _program(seed: int):
    return ProgramGenerator(MICRO_PROFILE, seed=seed).generate()


streams = dict(
    program_seed=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    n_records=st.integers(0, 3_000),
    run_range=st.sampled_from(((2, 12), (1, 1), (1, 40))),
)


def _columns(trace: CompiledTrace) -> dict:
    columns = {name: trace.column(name).tobytes() for name in CORE_COLUMNS}
    columns["derived"] = [column.tobytes() for line_size in (16, 64)
                          for column in trace.derived(line_size)]
    return columns


def _check_stream(program_seed, seed, n_records, run_range):
    program = _program(program_seed)
    oracle = OracleTraceGenerator(program, seed, run_range)
    expected = from_records(oracle.records(n_records))
    generator = TraceGenerator(program, seed, run_range)
    blocks, taken = generator.stream(n_records)
    assert len(blocks) == n_records + 1 and len(taken) == n_records
    got = CompiledTrace.from_stream(generator.columns, blocks, taken)
    assert got.n_records == n_records
    assert got.n_blocks == expected.n_blocks == len(set(blocks[:-1]))
    assert _columns(got) == _columns(expected)
    assert got.fingerprint == expected.fingerprint
    assert generator.rng.getstate() == oracle.rng.getstate()


@given(**streams)
@settings(max_examples=60, deadline=None)
def test_stream_columns_equal_oracle_numpy(program_seed, seed, n_records,
                                           run_range):
    _check_stream(program_seed, seed, n_records, run_range)


@given(**streams)
@settings(max_examples=60, deadline=None)
def test_records_equal_oracle(program_seed, seed, n_records, run_range):
    program = _program(program_seed)
    expected = OracleTraceGenerator(program, seed, run_range).records(
        n_records)
    assert as_records(generate_trace(
        program, n_records, seed, dispatch_run_range=run_range)) == expected
