"""Benchmark trajectory: payload schema, compare gate, CLI exit codes."""

import copy
import json
import os

import pytest

from repro.cli import build_parser, main
from repro.harness import bench
from repro.harness.bench import (
    BENCH_SCHEMA_VERSION,
    BenchSchemaMismatch,
    bench_grid,
    compare_bench,
    latest_bench_file,
    load_bench,
    run_bench,
)
from repro.harness.scale import Scale
from repro.obs import ledger as ledger_mod
from repro.obs.profiler import PROFILER, span_row
from repro.obs.spans import read_spans, span_rollup

TINY = Scale("tiny", records=3_000, warmup=800)


@pytest.fixture(scope="module")
def bench_recorded(tmp_path_factory):
    """An unledgered bench run plus the spans it left in memory."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_test.json"
    first = len(PROFILER.spans)
    payload, path = run_bench(TINY, workloads=("noop",), out=out)
    return payload, path, [span_row(span) for span in PROFILER.spans[first:]]


@pytest.fixture(scope="module")
def bench_run(bench_recorded):
    payload, path, _ = bench_recorded
    return payload, path


class TestGrid:
    def test_grid_shape(self):
        figures = bench_grid(("noop",))
        assert len(figures["fig14_grid"]) == 4
        assert len(figures["fig3_btb_sweep"]) == 2

    def test_default_workloads(self):
        figures = bench_grid()
        assert len(figures["fig14_grid"]) == 12


class TestRun:
    def test_payload_schema(self, bench_run):
        payload, _ = bench_run
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert payload["scale"] == "tiny"
        assert payload["cells"] == 6
        throughput = payload["throughput"]
        assert throughput["records_per_sec"] > 0
        assert throughput["cycles_per_sec"] > 0
        assert throughput["cold_wall_s"] > 0
        assert set(payload["figures"]) == {"fig14_grid", "fig3_btb_sweep"}

    def test_cache_and_profiler_fields(self, bench_run):
        payload, _ = bench_run
        caches = payload["caches"]
        # Warm phase replays entirely out of the just-filled store.
        assert caches["store_hit_rate"] == 1.0
        assert caches["store_misses"] == 0
        assert "sbd_line_cache_hit_rate" in caches
        sections = payload["profiler"]
        assert "harness.simulate" in sections
        assert sections["harness.cell"]["calls"] >= 6

    def test_compiled_trace_fields(self, bench_run):
        payload, _ = bench_run
        caches = payload["caches"]
        # One compilation (miss) for the single workload.  The batched
        # serial path consults the cache once per (workload, seed,
        # bolted) group rather than once per cell, so later figure
        # groups are hits but the exact count is a routing detail.
        assert caches["compiled_trace_misses"] == 1
        assert caches["compiled_trace_hits"] >= 1
        # Hit *rates* are per figure group: the first group carries the
        # unavoidable first-touch compilations, later groups reuse them
        # perfectly -- a cumulative rate would blend the two.
        fig14 = payload["figures"]["fig14_grid"]
        assert fig14["compiled_trace_misses"] == 1
        assert fig14["compiled_trace_hit_rate"] == pytest.approx(
            fig14["compiled_trace_hits"]
            / (fig14["compiled_trace_hits"] + 1))
        fig3 = payload["figures"]["fig3_btb_sweep"]
        assert fig3["compiled_trace_misses"] == 0
        assert fig3["compiled_trace_hits"] >= 1
        assert fig3["compiled_trace_hit_rate"] == 1.0

    def test_fastforward_fields(self, bench_run):
        payload, _ = bench_run
        ff = payload["fastforward"]
        assert ff["enabled"] is True
        assert ff["workload"] == "steady-stream"
        assert ff["records"] >= payload["records_per_cell"]
        assert ff["period"] and ff["period"] > 0
        assert ff["skipped_records"] > 0
        assert ff["on_wall_s"] > 0 and ff["off_wall_s"] > 0
        assert ff["speedup"] > 1.0

    def test_trace_compile_fires_once_per_workload(self, bench_run):
        payload, _ = bench_run
        sections = payload["profiler"]
        # Single bench workload -> one grid compilation, plus the
        # dedicated phase-5 fast-forward cell's.
        assert sections["trace.compile"]["calls"] == 2

    def test_file_written_atomically(self, bench_run):
        payload, path = bench_run
        assert load_bench(path) == json.loads(json.dumps(payload))
        assert not path.with_name(path.name + ".tmp").exists()

    def test_profiler_block_is_rollup_of_memory_spans(self, bench_recorded):
        # REPRO_LEDGER=0 (the suite default): the block rolls up the
        # in-memory spans the bench recorded, the only timing record.
        payload, _, rows = bench_recorded
        assert rows
        assert payload["profiler"] == span_rollup(rows)

    def test_profiler_block_is_rollup_of_ledger_spans(self, tmp_path,
                                                      monkeypatch):
        # Under a run ledger the same block rolls up the run's
        # spans.jsonl rows for this process.
        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_NO_PROGRESS", "1")
        with ledger_mod.start_run("bench run", root=tmp_path) as ledger:
            payload, _ = run_bench(TINY, workloads=("noop",),
                                   out=tmp_path / "BENCH_ledger.json")
        rows = [span for span in read_spans(ledger.spans_path)
                if span["pid"] == os.getpid()]
        assert payload["profiler"] == span_rollup(rows)
        assert payload["profiler"]["trace.compile"]["calls"] == 2

    def test_profiler_restored_after_run(self, bench_run):
        from repro.obs.profiler import PROFILER
        assert PROFILER.enabled is False

    def test_load_rejects_non_bench_json(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError):
            load_bench(bogus)

    def test_latest_bench_file_prefers_newest_date(self, tmp_path):
        assert latest_bench_file(tmp_path) is None
        (tmp_path / "BENCH_20260101.json").write_text("{}")
        (tmp_path / "BENCH_20260301.json").write_text("{}")
        assert latest_bench_file(tmp_path).name == "BENCH_20260301.json"


class TestCompare:
    def test_self_compare_is_clean(self, bench_run):
        payload, _ = bench_run
        regressions, lines = compare_bench(payload, payload)
        assert regressions == []
        assert any(line.startswith("throughput:") for line in lines)

    def test_throughput_regression_detected(self, bench_run):
        payload, _ = bench_run
        slower = copy.deepcopy(payload)
        slower["throughput"]["records_per_sec"] *= 0.5
        regressions, _ = compare_bench(payload, slower, threshold_pct=25.0)
        assert len(regressions) == 1
        assert "REGRESSION" in regressions[0]

    def test_drop_within_threshold_passes(self, bench_run):
        payload, _ = bench_run
        slower = copy.deepcopy(payload)
        slower["throughput"]["records_per_sec"] *= 0.9
        regressions, _ = compare_bench(payload, slower, threshold_pct=25.0)
        assert regressions == []

    def test_figure_threshold_is_opt_in(self, bench_run):
        payload, _ = bench_run
        slower = copy.deepcopy(payload)
        slower["figures"]["fig14_grid"]["seconds"] *= 3.0
        regressions, _ = compare_bench(payload, slower)
        assert regressions == []
        regressions, _ = compare_bench(payload, slower,
                                       figure_threshold_pct=50.0)
        assert any("fig14_grid" in r for r in regressions)

    def test_schema_mismatch_raises(self, bench_run):
        payload, _ = bench_run
        other = copy.deepcopy(payload)
        other["schema_version"] = BENCH_SCHEMA_VERSION + 1
        with pytest.raises(BenchSchemaMismatch) as excinfo:
            compare_bench(payload, other)
        assert excinfo.value.before_schema == BENCH_SCHEMA_VERSION
        assert excinfo.value.after_schema == BENCH_SCHEMA_VERSION + 1

    def test_hit_rate_changes_inform_but_never_gate(self, bench_run):
        payload, _ = bench_run
        other = copy.deepcopy(payload)
        other["caches"]["store_hit_rate"] = 0.0
        regressions, lines = compare_bench(payload, other)
        assert regressions == []
        assert any("store_hit_rate" in line for line in lines)


class TestCli:
    def test_parser_accepts_bench_run(self):
        args = build_parser().parse_args(
            ["bench", "run", "--out", "B.json", "--workloads", "noop"])
        assert args.bench_command == "run"
        assert args.workloads == ["noop"]

    def test_parser_accepts_bench_compare(self):
        args = build_parser().parse_args(
            ["bench", "compare", "a.json", "b.json",
             "--threshold", "10", "--figure-threshold", "40"])
        assert (args.before, args.after) == ("a.json", "b.json")
        assert args.threshold == 10.0

    def test_parser_accepts_stats_trace(self):
        args = build_parser().parse_args(
            ["stats", "trace", "events.jsonl", "--chrome", "out.json"])
        assert args.stats_command == "trace"
        assert args.chrome == "out.json"

    def test_compare_exit_codes(self, bench_run, tmp_path, capsys):
        payload, path = bench_run
        slower = copy.deepcopy(payload)
        slower["throughput"]["records_per_sec"] *= 0.5
        doctored = tmp_path / "BENCH_doctored.json"
        doctored.write_text(json.dumps(slower), encoding="utf-8")

        assert main(["bench", "compare", str(path), str(path)]) == 0
        assert main(["bench", "compare", str(path), str(doctored)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_compare_schema_mismatch_is_a_diagnostic(self, bench_run,
                                                     tmp_path, capsys):
        payload, path = bench_run
        future = copy.deepcopy(payload)
        future["schema_version"] = BENCH_SCHEMA_VERSION + 1
        doctored = tmp_path / "BENCH_future.json"
        doctored.write_text(json.dumps(future), encoding="utf-8")

        code = main(["bench", "compare", str(path), str(doctored)])
        out = capsys.readouterr().out
        assert code == 2
        assert "schema" in out
        assert str(BENCH_SCHEMA_VERSION + 1) in out
        assert "Traceback" not in out

    def test_compare_without_baseline_is_first_run(self, bench_run,
                                                   tmp_path, capsys):
        _, path = bench_run
        code = main(["bench", "compare", str(path),
                     "--baseline", str(tmp_path / "missing.json")])
        assert code == 0
        assert "first run" in capsys.readouterr().out

    def test_compare_without_any_bench_file(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "compare"]) == 2
        assert "bench run" in capsys.readouterr().out
