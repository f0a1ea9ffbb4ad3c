"""Command-line interface tests."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.workload == "voter"

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "bogus-workload"])

    def test_experiment_names_cover_all_figures(self):
        for name in ("fig1", "fig3", "fig6", "fig13", "fig14", "fig15",
                     "fig16", "fig17", "fig18", "bolt", "bogus",
                     "comparator-zoo"):
            assert name in EXPERIMENTS

    @pytest.mark.parametrize("argv", [
        ["run", "voter", "-j", "8"],
        ["compare", "voter", "--jobs", "2"],
        ["compare", "voter", "--no-store"],
        ["divergence", "bisect", "voter", "--no-store"],
    ])
    def test_subcommands_reject_options_they_ignore(self, argv, capsys):
        # A subcommand takes only the shared options it reads: run and
        # compare simulate in-process, compare and divergence bisect
        # touch no store.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_choices(self):
        args = build_parser().parse_args(["--scale", "smoke", "workloads"])
        assert args.scale == "smoke"

    @pytest.mark.parametrize("argv", [
        ["stats", "run", "voter"],
        ["attrib", "run", "voter"],
        ["intervals", "run", "voter"],
        ["metrics", "export", "snap.json"],
    ])
    def test_folded_commands_rejected(self, argv, capsys):
        # One `run` replaces the three single-cell commands; the
        # Prometheus export is gone.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "voter" in out and "kafka" in out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "8K-entry/78KB" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        assert "OLTPBench" in capsys.readouterr().out

    def test_describe(self, capsys):
        assert main(["describe", "noop"]) == 0
        assert "Program noop" in capsys.readouterr().out

    def test_experiment_with_restricted_workloads(self, capsys):
        code = main(["--scale", "smoke", "experiment", "fig15",
                     "--workloads", "noop"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 15" in out
        assert "noop" in out

    @pytest.mark.parametrize("env, flags, prefetched", [
        ("2", [], [2]),             # no flag: REPRO_JOBS picks the workers
        (None, [], []),             # no flag, no env: serial
        ("2", ["--jobs", "1"], []),  # the flag wins over the env
    ])
    def test_experiment_jobs_default_from_env(self, env, flags, prefetched,
                                              monkeypatch, capsys):
        from repro.harness import experiments

        if env is None:
            monkeypatch.delenv("REPRO_JOBS", raising=False)
        else:
            monkeypatch.setenv("REPRO_JOBS", env)
        seen = []
        monkeypatch.setattr(experiments, "prefetch_exhibit",
                            lambda runner, name, jobs, **kwargs:
                            seen.append(jobs))
        monkeypatch.setitem(EXPERIMENTS, "fig6",
                            lambda runner, **kwargs: {"render": "stub"})
        assert main(["experiment", "fig6", "--no-store", *flags]) == 0
        assert seen == prefetched

    def test_compare_smoke(self, capsys):
        assert main(["--scale", "smoke", "compare", "noop"]) == 0
        assert "speedup" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--scale", "smoke", "workloads", "period", "voter"],
        ["workloads", "period", "voter", "--scale", "smoke"],
    ])
    def test_workloads_period_takes_scale_either_side(self, argv, capsys,
                                                       monkeypatch):
        # The subcommand's own --scale must not reset a global one.
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "40000 records" in out
        assert "160000" not in out


class TestStatsParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "voter"])
        assert args.config == "skia"
        assert args.trace_capacity == 65536

    def test_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "voter",
                                       "--config", "bogus"])

    def test_comparator_configs_accepted(self):
        """`run` exposes the Section 7.1 comparator configs."""
        for name in ("airbtb", "boomerang", "microbtb", "fdip", "fdip4"):
            args = build_parser().parse_args(
                ["run", "voter", "--config", name])
            assert args.config == name

    def test_comparator_config_resolution(self):
        from repro.cli import _stats_config
        assert _stats_config("microbtb").comparator == "microbtb"
        fdip8 = _stats_config("fdip8")
        assert fdip8.comparator == "fdip"
        assert fdip8.fdip_depth == 8

    def test_parser_accepts_stats_trace(self):
        args = build_parser().parse_args(
            ["stats", "trace", "events.jsonl", "--chrome", "out.json"])
        assert args.stats_command == "trace"
        assert args.chrome == "out.json"

    def test_check_validates_workload_names(self):
        # Regression: --workloads used to accept any string silently.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "check",
                                       "--workloads", "not-a-workload"])

    def test_experiment_workloads_validated_too(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig14",
                                       "--workloads", "not-a-workload"])


class TestStatsCommands:
    def test_run_reports_invariants(self, capsys, tmp_path):
        dump = tmp_path / "snap.json"
        trace_out = tmp_path / "trace.jsonl"
        code = main(["--scale", "smoke", "run", "noop",
                     "--config", "skia", "--snapshot-out", str(dump),
                     "--trace-out", str(trace_out)])
        out = capsys.readouterr().out
        assert code == 0
        assert "invariants:" in out and "all passing" in out
        assert "[btb]" in out and "[sbb]" in out
        assert dump.exists() and trace_out.exists()

    def test_diff_two_snapshots(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path, config in ((a, "base"), (b, "skia")):
            assert main(["--scale", "smoke", "run", "noop",
                         "--config", config, "--snapshot-out",
                         str(path)]) == 0
        capsys.readouterr()
        assert main(["stats", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "metric" in out

    def test_diff_identical(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        assert main(["--scale", "smoke", "run", "noop",
                     "--snapshot-out", str(a)]) == 0
        capsys.readouterr()
        assert main(["stats", "diff", str(a), str(a)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_check_small_grid(self, capsys):
        code = main(["--scale", "smoke", "stats", "check",
                     "--workloads", "noop", "--no-store"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checked 4 cells" in out
        assert "0 failing" in out

    def test_check_parallel_without_store(self, capsys):
        # Pool tasks send every cell's metric snapshot back, so a
        # store-less parallel check has a snapshot for every cell.
        code = main(["--scale", "smoke", "stats", "check", "--workloads",
                     "noop", "voter", "--no-store", "-j", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checked 8 cells" in out
        assert "0 failing, 0 without snapshots" in out


class TestAttribParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "voter"])
        assert args.config == "skia"
        assert args.top == 20

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bogus"])

    def test_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "voter",
                                       "--config", "bogus"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attrib"])

    def test_stats_check_snapshot_files(self):
        args = build_parser().parse_args(["stats", "check",
                                          "--snapshot", "a.json", "b.json"])
        assert args.snapshot == ["a.json", "b.json"]


class TestAttribCommands:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        """One `run` producing artifact + HTML report + snapshot."""
        root = tmp_path_factory.mktemp("attrib")
        paths = {"artifact": root / "noop.json",
                 "report": root / "noop.html",
                 "snapshot": root / "noop-snap.json"}
        code = main(["--scale", "smoke", "run", "noop",
                     "--config", "skia", "--no-store",
                     "--attrib-out", str(paths["artifact"]),
                     "--report", str(paths["report"]),
                     "--snapshot-out", str(paths["snapshot"])])
        assert code == 0
        return paths

    def test_run_writes_all_outputs(self, artifacts, capsys):
        for path in artifacts.values():
            assert path.exists()
        assert artifacts["report"].read_text(
            encoding="utf-8").startswith("<!DOCTYPE html>")

    def test_run_summary_and_invariants(self, capsys):
        code = main(["--scale", "smoke", "run", "noop",
                     "--config", "base", "--no-store"])
        out = capsys.readouterr().out
        assert code == 0
        assert "branches over" in out
        assert "all passing" in out

    def test_snapshot_checkable_by_stats_check(self, artifacts, capsys):
        code = main(["stats", "check", "--snapshot",
                     str(artifacts["snapshot"])])
        out = capsys.readouterr().out
        assert code == 0
        assert "invariants checked, all passing" in out

    def test_report_renders_markdown(self, artifacts, capsys):
        assert main(["attrib", "report", str(artifacts["artifact"])]) == 0
        out = capsys.readouterr().out
        assert "# Attribution report" in out
        assert "Resteer causes" in out

    def test_diff_identical_artifact_exits_zero(self, artifacts, capsys):
        code = main(["attrib", "diff", str(artifacts["artifact"]),
                     str(artifacts["artifact"])])
        assert code == 0
        assert "no per-branch attribution movement" in (
            capsys.readouterr().out)

    def test_diff_flags_regression_nonzero(self, tmp_path, capsys):
        from repro.obs import AttributionAggregator

        before = AttributionAggregator(workload="synthetic")
        after = AttributionAggregator(workload="synthetic")
        after.observe({"kind": "resteer", "record": 0, "pc": 0x40,
                       "stage": "exec", "cause": "cond_mispredict",
                       "latency": 500.0})
        before_path = before.save(tmp_path / "before.json")
        after_path = after.save(tmp_path / "after.json")
        code = main(["attrib", "diff", str(before_path), str(after_path),
                     "--min-cycles", "100"])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSED" in out
        assert "1 regressed past thresholds" in out


class TestRunCommand:
    OUTPUTS = {"--snapshot-out": "snapshot.json", "--attrib-out": "attrib.json",
               "--report": "report.html", "--intervals-out": "series.json",
               "--markdown": "series.md", "--trace-out": "trace.jsonl",
               "--timeline-out": "timeline.json"}

    def test_every_output_matches_a_single_observer_run(self, tmp_path,
                                                        capsys):
        """One `run` with every output flag writes seven files, each
        equal to what a storeless run with only that observer attached
        produces: the observers do not disturb one another."""
        import dataclasses

        from repro.cli import _stats_config
        from repro.frontend.batch import BatchedFrontEndSimulator
        from repro.frontend.engine import FrontEndSimulator
        from repro.harness.runner import ExperimentRunner
        from repro.harness.scale import SCALES
        from repro.obs import (AttributionAggregator, EventTrace,
                               IntervalSeries, TimelineRecorder,
                               load_snapshot, render_report)
        from repro.workloads.cache import build_program, build_trace

        out = {flag: tmp_path / name for flag, name in self.OUTPUTS.items()}
        argv = ["--scale", "smoke", "--no-store", "run", "voter",
                "--window", "1000"]
        for flag, path in out.items():
            argv += [flag, str(path)]
        assert main(argv) == 0
        assert all(path.stat().st_size > 0 for path in out.values())
        ref = tmp_path / "ref"
        ref.mkdir()
        scale = SCALES["smoke"]
        config = _stats_config("skia")
        windowed = dataclasses.replace(config, interval_size=1000)

        attributed = ExperimentRunner(scale=scale, store=None,
                                      record_attribution=True)
        attributed.run("voter", config)
        aggregator = AttributionAggregator.from_jsonable(
            attributed.attribution_for("voter", config))
        assert aggregator.save(ref / "attrib.json").read_bytes() == (
            out["--attrib-out"].read_bytes())
        assert out["--report"].read_text(encoding="utf-8") == (
            render_report(aggregator, fmt="html", top=20))

        windows = ExperimentRunner(scale=scale, store=None)
        windows.run("voter", windowed)
        series = IntervalSeries.from_jsonable(
            windows.intervals_for("voter", windowed))
        series.save(ref / "series.json")
        assert (ref / "series.json").read_bytes() == (
            out["--intervals-out"].read_bytes())
        assert out["--markdown"].read_text(encoding="utf-8") == (
            series.render_markdown())

        program = build_program("voter")
        compiled = build_trace("voter", scale.records)
        recorders = ((EventTrace(), "attach_trace", "to_jsonl",
                      "--trace-out"),
                     (TimelineRecorder(), "attach_timeline", "to_chrome",
                      "--timeline-out"))
        for recorder, attach, export, flag in recorders:
            simulator = FrontEndSimulator(program, config, seed=0)
            getattr(simulator, attach)(recorder)
            batch = BatchedFrontEndSimulator()
            batch.add_lane(simulator, compiled, warmup=scale.warmup)
            batch.run()
            written = getattr(recorder, export)(ref / out[flag].name)
            assert written.read_bytes() == out[flag].read_bytes()

        # The merged snapshot: the windowed cell's metrics, the
        # attribution rollup and the trace ring's accounting gauges.
        snapshot, _ = load_snapshot(out["--snapshot-out"])
        trace = recorders[0][0]
        assert {key: value for key, value in snapshot.items()
                if not key.startswith("trace.")} == {
            **windows.metrics_for("voter", windowed),
            **aggregator.snapshot()}
        assert snapshot["trace.emitted"] == trace.emitted
        assert snapshot["trace.dropped_events"] == trace.dropped

    @pytest.mark.parametrize("flags", [["--markdown", "ts.md"],
                                       ["--window", "-5"]])
    def test_interval_flags_need_a_positive_window(self, flags, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--scale", "smoke", "--no-store", "run", "noop",
                     *flags]) == 2
        assert "--window" in capsys.readouterr().err
        assert not (tmp_path / "ts.md").exists()

    def test_ledger_label_names_the_window(self, tmp_path, monkeypatch,
                                           capsys):
        from repro.obs.ledger import list_runs

        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_NO_PROGRESS", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["--scale", "smoke", "run", "noop", "--config", "base",
                     "--window", "4000"]) == 0
        [run] = list_runs(tmp_path / "cache" / "runs")
        assert run.command == "run noop --config base --window 4000"


class TestRunsCommands:
    @pytest.fixture()
    def recorded_run(self, tmp_path, monkeypatch):
        """An end-to-end ledgered `run` into an isolated cache."""
        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_NO_PROGRESS", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["--scale", "smoke", "run", "noop",
                     "--config", "base"]) == 0
        return tmp_path / "cache" / "runs"

    def test_stats_run_records_a_complete_run(self, recorded_run, capsys):
        capsys.readouterr()
        assert main(["runs", "list", "--root", str(recorded_run)]) == 0
        out = capsys.readouterr().out
        assert "complete" in out
        assert "run noop --config base" in out

    def _stats_run_fields(self, tmp_path, monkeypatch, *extra):
        """Ledger fields of one ledgered `run noop --config base`."""
        from repro.obs.ledger import list_runs

        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_NO_PROGRESS", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["--scale", "smoke", "run", "noop",
                     "--config", "base", *extra]) == 0
        [run] = list_runs(tmp_path / "cache" / "runs")
        [cell] = run.cells.values()
        return cell.fields

    def test_stats_run_records_the_kernel(self, tmp_path, monkeypatch,
                                          capsys):
        fields = self._stats_run_fields(tmp_path, monkeypatch)
        assert "mode" not in fields
        assert "fallback_reason" not in fields
        assert fields["fastforward"]["engaged"] in (True, False)

    def test_stats_run_records_the_traced_kernel(self, tmp_path,
                                                 monkeypatch, capsys):
        fields = self._stats_run_fields(
            tmp_path, monkeypatch,
            "--trace-out", str(tmp_path / "trace.jsonl"))
        assert "mode" not in fields
        assert "fallback_reason" not in fields
        # `run` always records attribution, the first observer the
        # fast-forward plan names.
        assert fields["fastforward"] == {"engaged": False,
                                         "reason": "attribution attached"}

    def test_show_latest_check_passes(self, recorded_run, capsys):
        capsys.readouterr()
        code = main(["runs", "show", "--latest", "--cells", "--check",
                     "--root", str(recorded_run)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status:   complete" in out
        assert "queued>store_probe>prepare>simulate>invariants>done" in out
        assert "conservation:" in out

    def test_show_perfetto_merges_trace(self, recorded_run, tmp_path,
                                        capsys):
        import json

        merged = tmp_path / "merged.json"
        assert main(["runs", "show", "--latest", "--root",
                     str(recorded_run), "--perfetto", str(merged)]) == 0
        payload = json.loads(merged.read_text(encoding="utf-8"))
        assert any(event.get("pid") == 3
                   for event in payload["traceEvents"])

    def test_ledger_disabled_records_nothing(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["--scale", "smoke", "run", "noop",
                     "--config", "base"]) == 0
        assert not (tmp_path / "cache" / "runs").exists()

    def test_workloads_period_records_no_run(self, tmp_path, monkeypatch,
                                             capsys):
        # It simulates nothing, so it gets no run (an empty "complete"
        # run would shadow the last real one in `runs show --latest`).
        from repro.obs.ledger import list_runs

        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["--scale", "smoke", "workloads", "period",
                     "voter"]) == 0
        assert list_runs(tmp_path / "cache" / "runs") == []

    def test_show_incomplete_run_exits_nonzero(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        ledger = RunLedger.create("crashed", root=tmp_path)
        ledger.cell("stuck", "queued")
        ledger.close()  # no terminal record, no finish
        code = main(["runs", "show", ledger.run_id, "--root",
                     str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "INCOMPLETE" in out
        assert "running/crashed" in out

    def test_show_unknown_run_exits_two(self, tmp_path, capsys):
        assert main(["runs", "show", "nope", "--root",
                     str(tmp_path)]) == 2

    def test_list_empty_root(self, tmp_path, capsys):
        assert main(["runs", "list", "--root", str(tmp_path)]) == 0
        assert "no runs" in capsys.readouterr().out

    def test_list_json_is_machine_readable(self, recorded_run, capsys):
        import json

        capsys.readouterr()
        assert main(["runs", "list", "--json", "--root",
                     str(recorded_run)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload
        entry = payload[0]
        assert entry["status"] == "complete"
        assert entry["command"].startswith("run noop")
        assert {"run_id", "created", "schema_version", "cells_seen",
                "results", "incomplete"} <= entry.keys()

    def test_show_json_carries_per_cell_lifecycle(self, recorded_run,
                                                  capsys):
        import json

        capsys.readouterr()
        assert main(["runs", "show", "--latest", "--json", "--root",
                     str(recorded_run)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "complete"
        assert payload["cells"]
        cell = next(iter(payload["cells"].values()))
        assert "phases" in cell and "result" in cell

    def test_check_detects_tampered_spans(self, recorded_run, capsys):
        run_dir = next(d for d in recorded_run.iterdir() if d.is_dir())
        spans_path = run_dir / "spans.jsonl"
        lines = spans_path.read_text(encoding="utf-8").splitlines()
        spans_path.write_text("\n".join(lines[:-1]) + "\n",
                              encoding="utf-8")
        capsys.readouterr()
        code = main(["runs", "show", "--latest", "--check", "--root",
                     str(recorded_run)])
        out = capsys.readouterr().out
        assert code == 1
        assert "INVARIANT VIOLATION" in out


class TestIntervalsCommands:
    @pytest.fixture()
    def saved_series(self, tmp_path, capsys):
        path = tmp_path / "series.json"
        assert main(["--scale", "smoke", "run", "noop",
                     "--no-store", "--window", "4000",
                     "--intervals-out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_parser_defaults(self):
        args = build_parser().parse_args(["run", "noop"])
        assert args.config == "skia"
        assert args.window == 0
        assert args.intervals_out is None and args.markdown is None

    def test_run_reports_conservation(self, capsys):
        assert main(["--scale", "smoke", "run", "noop",
                     "--no-store", "--window", "4000",
                     "--metrics", "ipc"]) == 0
        out = capsys.readouterr().out
        assert "10 windows x 4000 records" in out
        assert "fingerprint" in out
        assert "interval conservation" in out

    def test_plot_renders_markdown_table(self, saved_series, capsys):
        assert main(["intervals", "plot", str(saved_series),
                     "--metrics", "ipc"]) == 0
        out = capsys.readouterr().out
        assert "| window | start | end | ipc |" in out

    def test_diff_identical_then_mutated(self, saved_series, tmp_path,
                                         capsys):
        from repro.obs.intervals import IntervalSeries

        assert main(["intervals", "diff", str(saved_series),
                     str(saved_series)]) == 0
        assert "identical" in capsys.readouterr().out
        mutated = IntervalSeries.load(saved_series)
        mutated.columns["blocks"][0] += 1
        other = tmp_path / "other.json"
        mutated.save(other)
        assert main(["intervals", "diff", str(saved_series),
                     str(other)]) == 1
        assert "window 0" in capsys.readouterr().out


class TestDivergenceCommands:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["divergence", "bisect", "noop"])
        assert args.engine_a == "compiled"
        assert args.engine_b == "batched"
        assert args.config == "skia"
        assert args.config_b is None

    def test_identical_engines_exit_zero(self, capsys):
        code = main(["--scale", "smoke", "divergence", "bisect", "noop",
                     "--window", "8000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "identical" in out

    def test_seeded_divergence_exits_one(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        code = main(["--scale", "smoke", "divergence", "bisect", "voter",
                     "--config", "skia", "--config-b", "base",
                     "--window", "8000", "--no-events",
                     "--json", str(report_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "first divergent window" in out
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["identical"] is False
        assert payload["record_index"] is not None
