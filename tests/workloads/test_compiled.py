"""CompiledTrace: lowering, derived columns, cross-process identity,
cache memoisation."""

import dataclasses
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from repro.workloads.cache import WorkloadCache
from repro.workloads.compiled import CORE_COLUMNS, KIND_BY_CODE, compile_trace
from repro.workloads.trace import TraceGenerator


@pytest.fixture(scope="module")
def compiled(micro_trace):
    return compile_trace(micro_trace)


class TestCompilation:
    def test_round_trip(self, micro_trace, compiled):
        assert compiled.n_records == len(micro_trace)
        assert compiled.records() == micro_trace

    def test_columns_are_int64(self, compiled):
        for name in CORE_COLUMNS:
            column = compiled.column(name)
            assert isinstance(column, array)
            assert column.itemsize == 8

    def test_kind_and_taken_encoding(self, micro_trace, compiled):
        kinds = compiled.column("kind")
        taken = compiled.column("taken")
        for index in (0, 17, len(micro_trace) - 1):
            record = micro_trace[index]
            assert KIND_BY_CODE[kinds[index]] is record.kind
            assert bool(taken[index]) is record.taken

    def test_len(self, micro_trace, compiled):
        assert len(compiled) == len(micro_trace)

    def test_rejects_next_pc_it_cannot_derive(self, micro_trace):
        """``next_pc`` is derived from target, taken bit and
        fallthrough, so a record that disagrees cannot be lowered."""
        record = micro_trace[5]
        bad = dataclasses.replace(record, next_pc=record.next_pc + 1)
        with pytest.raises(ValueError, match="record 5"):
            compile_trace(micro_trace[:5] + [bad])

    def test_deterministic_fingerprint(self, micro_trace):
        assert (compile_trace(micro_trace).fingerprint
                == compile_trace(micro_trace).fingerprint)

    def test_different_traces_different_fingerprints(self, micro_program,
                                                     compiled):
        other = TraceGenerator(micro_program, seed=99).records(100)
        assert compile_trace(other).fingerprint != compiled.fingerprint

    def test_fingerprint_hashed_on_first_read(self, micro_trace):
        trace = compile_trace(micro_trace)
        assert "fingerprint" not in vars(trace)
        assert trace.fingerprint is trace.fingerprint


class TestDerivedColumns:
    @pytest.mark.parametrize("line_size", [32, 64, 128])
    def test_matches_per_record_arithmetic(self, micro_trace, compiled,
                                           line_size):
        first_line, n_lines = compiled.derived(line_size)
        mask = ~(line_size - 1)
        for index in range(0, len(micro_trace), 97):
            record = micro_trace[index]
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
            "from repro.workloads import build_trace, compile_trace\n"
            "records = build_trace('noop', 2000, seed=3)\n"
            "print(compile_trace(records).fingerprint)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path("src").resolve())
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=tmp_path,
            capture_output=True, text=True, check=True)
        from repro.workloads import build_trace
        local = compile_trace(build_trace("noop", 2000, seed=3))
        assert result.stdout.strip() == local.fingerprint


class TestCacheLifecycle:
    def test_compiled_is_memoised(self):
        cache = WorkloadCache()
        first = cache.compiled("noop", 1000)
        assert cache.compiled("noop", 1000) is first
        stats = cache.stats()["compiled"]
        assert (stats.hits, stats.misses) == (1, 1)
        cache.clear()
