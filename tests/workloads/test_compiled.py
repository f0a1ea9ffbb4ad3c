"""CompiledTrace: lowering, prefixes, derived columns, period detection,
cross-process identity, cache memoisation."""

import dataclasses
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from repro.frontend.batch import run_compiled_batched
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.workloads import build_trace
from repro.workloads.cache import WorkloadCache
from repro.workloads.compiled import (
    _ITEM,
    CORE_COLUMNS,
    KIND_BY_CODE,
    _detect_period,
)
from tests.conftest import generate_trace
from tests.workloads.records import as_records, from_records


@pytest.fixture(scope="module")
def records(micro_trace):
    return as_records(micro_trace)


@pytest.fixture(scope="module")
def compiled(records):
    return from_records(records)


def _core_columns(trace) -> dict:
    return {name: trace.column(name).tobytes() for name in CORE_COLUMNS}


class TestCompilation:
    def test_round_trip(self, records, compiled):
        assert compiled.n_records == len(records)
        assert as_records(compiled) == records

    def test_columns_are_int64(self, compiled):
        for name in CORE_COLUMNS:
            column = compiled.column(name)
            assert isinstance(column, array)
            assert column.itemsize == 8

    def test_kind_and_taken_encoding(self, records, compiled):
        kinds = compiled.column("kind")
        taken = compiled.column("taken")
        for index in (0, 17, len(records) - 1):
            record = records[index]
            assert KIND_BY_CODE[kinds[index]] is record.kind
            assert bool(taken[index]) is record.taken

    def test_len(self, records, compiled):
        assert len(compiled) == len(records)

    def test_rejects_next_pc_it_cannot_derive(self, records):
        """``next_pc`` is derived from target, taken bit and
        fallthrough, so a record that disagrees cannot be lowered."""
        record = records[5]
        bad = dataclasses.replace(record, next_pc=record.next_pc + 1)
        with pytest.raises(ValueError, match="record 5"):
            from_records(records[:5] + [bad])

    def test_deterministic_fingerprint(self, records):
        assert (from_records(records).fingerprint
                == from_records(records).fingerprint)

    def test_stream_and_lowered_records_agree(self, micro_trace, compiled):
        assert micro_trace.fingerprint == compiled.fingerprint
        assert _core_columns(micro_trace) == _core_columns(compiled)

    def test_different_traces_different_fingerprints(self, micro_program,
                                                     compiled):
        other = generate_trace(micro_program, 100, seed=99)
        assert other.fingerprint != compiled.fingerprint

    def test_fingerprint_hashed_on_first_read(self, records):
        trace = from_records(records)
        assert "fingerprint" not in vars(trace)
        assert trace.fingerprint is trace.fingerprint


class TestPrefix:
    @pytest.mark.parametrize("n", [0, 1, 4_000, 8_000])
    def test_matches_the_same_records_compiled_afresh(self, micro_trace,
                                                      records, n):
        """A prefix shares the block table yet gathers, and
        fingerprints, exactly as its records lowered on their own."""
        prefix = micro_trace.prefix(n)
        fresh = from_records(records[:n])
        assert prefix.n_records == n
        assert prefix.block_table is micro_trace.block_table
        assert prefix.fingerprint == fresh.fingerprint
        assert _core_columns(prefix) == _core_columns(fresh)
        assert as_records(prefix) == records[:n]

    def test_engines_agree_on_a_prefix(self, micro_program, micro_trace):
        prefix = micro_trace.prefix(3_000)
        config = FrontEndConfig(skia=SkiaConfig())
        oracle = FrontEndSimulator(micro_program, config).run_compiled(
            prefix, warmup=500)
        kernel = run_compiled_batched(
            FrontEndSimulator(micro_program, config), prefix, warmup=500)
        assert dataclasses.asdict(kernel) == dataclasses.asdict(oracle)
        assert oracle.blocks == 2_500

    def test_rejects_out_of_range_lengths(self, micro_trace):
        for n in (-1, micro_trace.n_records + 1):
            with pytest.raises(ValueError):
                micro_trace.prefix(n)


class TestPeriod:
    @pytest.mark.parametrize("workload, n", [
        ("steady-stream", 24_000), ("steady-loop", 24_000),
        ("steady-stream", 700), ("voter", 6_000)])
    def test_compact_detection_matches_all_nine_columns(self, workload, n):
        """Block index, taken bit and target pin a record, so detecting
        over them finds what detecting over every core column finds."""
        trace = build_trace(workload, n, seed=0)
        columns = [(trace.column(name), _ITEM) for name in CORE_COLUMNS]
        assert trace.period() == _detect_period(
            columns, trace.column("branch_pc"), n)


class TestDerivedColumns:
    @pytest.mark.parametrize("line_size", [32, 64, 128])
    def test_matches_per_record_arithmetic(self, records, compiled,
                                           line_size):
        first_line, n_lines = compiled.derived(line_size)
        mask = ~(line_size - 1)
        for index in range(0, len(records), 97):
            record = records[index]
            first = record.block_start & mask
            last = (record.branch_pc + record.branch_len - 1) & mask
            assert first_line[index] == first
            assert n_lines[index] == (last - first) // line_size + 1

    def test_memoised_per_instance(self, compiled):
        assert compiled.derived(32) is compiled.derived(32)

    def test_rejects_non_power_of_two(self, compiled):
        with pytest.raises(ValueError):
            compiled.derived(48)


class TestSerialisation:
    def test_cross_process_byte_identity(self, tmp_path):
        """Same (program, seed) compiles to the same bytes anywhere."""
        script = (
            "from repro.workloads import build_trace\n"
            "print(build_trace('noop', 2000, seed=3).fingerprint)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path("src").resolve())
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=tmp_path,
            capture_output=True, text=True, check=True)
        local = build_trace("noop", 2000, seed=3)
        assert result.stdout.strip() == local.fingerprint


class TestCacheLifecycle:
    def test_compiled_is_memoised(self):
        cache = WorkloadCache()
        first = cache.compiled("noop", 1000)
        assert cache.compiled("noop", 1000) is first
        stats = cache.stats()["compiled"]
        assert (stats.hits, stats.misses) == (1, 1)
        cache.clear()
