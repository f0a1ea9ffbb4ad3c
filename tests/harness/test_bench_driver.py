"""``repro bench``: a driver over ``bench/run.py`` and a bound check.

``bench run`` must run every ``BENCHMARK.json`` workload untraced and
traced, one ``bench/run.py`` process each, and collect their result
lines; ``bench compare`` must apply ``BENCHMARK.json``'s end-to-end
bounds in each metric's ``better`` direction.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess

import pytest

from repro import cli
from repro.cli import build_parser, compare_points, main

SPEC = json.loads((cli.CHECKOUT / "BENCHMARK.json").read_text(
    encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
VALUES = {"setup_s": 2.0, "records_per_s": 80_000.0, "peak_rss_mb": 100.0}


def result(correct=True, failed=0, attempted=48, metrics=None) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics or {}}


def point() -> dict:
    end_to_end = {metric["name"]: {"value": VALUES[metric["name"]],
                                   "unit": metric["unit"]}
                  for metric in SPEC["end_to_end"]}
    return {"host": {"nproc": 2}, "seconds": 24, "seed": 0,
            "workloads": {workload: {"end_to_end": result(
                metrics=copy.deepcopy(end_to_end)),
                "per_layer": result()} for workload in WORKLOADS}}


def scaled(name: str, factor: float, workload: str = "fig14-oltp") -> dict:
    after = point()
    after["workloads"][workload]["end_to_end"]["metrics"][name][
        "value"] *= factor
    return after


class TestCompare:
    def test_self_compare_is_clean(self):
        breaches, lines = compare_points(point(), point(), SPEC)
        assert breaches == []
        # Every workload: two run lines plus one per end-to-end metric.
        assert len(lines) == len(WORKLOADS) * (2 + len(SPEC["end_to_end"]))

    def test_records_per_s_drop_breaches(self):
        breaches, _ = compare_points(point(), scaled("records_per_s", 0.7),
                                     SPEC)
        assert len(breaches) == 1
        assert breaches[0].startswith("fig14-oltp records_per_s")

    def test_drop_within_threshold_passes(self):
        # records_per_s's bound is 25 %: a 20 % drop is noise.
        breaches, lines = compare_points(
            point(), scaled("records_per_s", 0.8), SPEC)
        assert breaches == []
        assert not any("BREACH" in line for line in lines)

    def test_direction_follows_better(self):
        # setup_s is lower-better: a 30 % rise breaches, a fall never.
        assert compare_points(point(), scaled("setup_s", 1.3), SPEC)[0]
        assert not compare_points(point(), scaled("setup_s", 0.5), SPEC)[0]
        assert not compare_points(point(), scaled("records_per_s", 3.0),
                                  SPEC)[0]

    def test_each_metric_has_its_own_bound(self):
        # peak_rss_mb's bound is 10 %, not 25 %.
        assert compare_points(point(), scaled("peak_rss_mb", 1.15),
                              SPEC)[0]
        assert not compare_points(point(), scaled("peak_rss_mb", 1.05),
                                  SPEC)[0]

    def test_failures_breach(self):
        after = point()
        after["workloads"]["steady-ff"]["per_layer"] = result(
            correct=False, failed=1)
        [breach] = compare_points(point(), after, SPEC)[0]
        assert breach.startswith("steady-ff per_layer")
        after["workloads"]["steady-ff"]["per_layer"] = result(correct=False)
        assert compare_points(point(), after, SPEC)[0]

    def test_per_layer_metrics_never_gate(self):
        after = point()
        after["workloads"]["fig14-oltp"]["per_layer"]["metrics"] = {
            "frontend.kernel_s": {"value": 99.0, "unit": "s"}}
        assert compare_points(point(), after, SPEC)[0] == []

    def test_missing_workload_raises(self):
        after = point()
        del after["workloads"]["warm-replay"]
        with pytest.raises(KeyError):
            compare_points(point(), after, SPEC)


class TestCli:
    def test_parser_accepts_bench_run(self):
        args = build_parser().parse_args(
            ["bench", "run", "--out", "B.json", "--seconds", "1"])
        assert args.bench_command == "run"
        assert (args.out, args.seconds) == ("B.json", 1.0)
        assert build_parser().parse_args(["bench", "run"]).seconds is None

    def test_parser_accepts_bench_compare(self):
        args = build_parser().parse_args(
            ["bench", "compare", "a.json", "b.json"])
        assert (args.before, args.after) == ("a.json", "b.json")

    @pytest.mark.parametrize("argv", [
        ["bench", "run", "--workloads", "noop"],
        ["bench", "run", "--scale", "smoke"],
        ["bench", "compare", "a.json", "b.json", "--threshold", "10"],
        ["bench", "compare", "a.json"],
    ], ids=["workloads", "scale", "threshold", "one-file"])
    def test_parser_rejects_removed_forms(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_compare_exit_codes(self, tmp_path, capsys):
        before = tmp_path / "BENCH_before.json"
        before.write_text(json.dumps(point()), encoding="utf-8")
        slower = tmp_path / "BENCH_slower.json"
        slower.write_text(json.dumps(scaled("records_per_s", 0.7)),
                          encoding="utf-8")
        assert main(["bench", "compare", str(before), str(before)]) == 0
        assert main(["bench", "compare", str(before), str(slower)]) == 1
        assert "BREACH" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [None, "not json", "{}", "[]"],
                             ids=["missing", "not-json", "no-workloads",
                                  "not-an-object"])
    def test_compare_unreadable_file_exits_2(self, tmp_path, capsys,
                                            content):
        good = tmp_path / "BENCH_good.json"
        good.write_text(json.dumps(point()), encoding="utf-8")
        bad = tmp_path / "BENCH_bad.json"
        if content is not None:
            bad.write_text(content, encoding="utf-8")
        assert main(["bench", "compare", str(good), str(bad)]) == 2
        out = capsys.readouterr().out
        assert "cannot compare" in out and "Traceback" not in out


class TestRun:
    @pytest.fixture()
    def fake_runs(self, monkeypatch):
        """Stand-in for ``bench/run.py``: records each call and prints a
        report line and a result line."""
        calls = []
        outcome = {"correct": True}

        def fake(command, cwd, stdout, text):
            calls.append((command, cwd))
            report = {"host": {"nproc": 2}, "stats_digest": "d"}
            trace = command[command.index("--trace") + 1]
            metrics = ({} if trace == "1" else
                       {name: {"value": value, "unit": "u"}
                        for name, value in VALUES.items()})
            line = result(correct=outcome["correct"], metrics=metrics)
            return subprocess.CompletedProcess(
                command, 0, stdout=f"{json.dumps(report)}\n"
                                   f"{json.dumps(line)}\n")

        monkeypatch.setattr(subprocess, "run", fake)
        return calls, outcome

    def test_runs_every_workload_untraced_and_traced(self, tmp_path,
                                                     fake_runs):
        calls, _ = fake_runs
        out = tmp_path / "BENCH_x.json"
        assert main(["bench", "run", "--out", str(out)]) == 0
        assert len(calls) == 2 * len(WORKLOADS)
        for command, cwd in calls:
            assert cwd == cli.CHECKOUT
            assert command[1:2] == ["bench/run.py"]
            assert command[command.index("--seed") + 1] == "0"
            assert command[command.index("--seconds") + 1] == str(
                SPEC["run_seconds"])
        assert [(c[c.index("--workload") + 1], c[c.index("--trace") + 1])
                for c, _ in calls] == [(workload, trace)
                                       for workload in WORKLOADS
                                       for trace in ("0", "1")]

    def test_payload_schema(self, tmp_path, fake_runs):
        out = tmp_path / "BENCH_x.json"
        assert main(["bench", "run", "--out", str(out)]) == 0
        written = json.loads(out.read_text(encoding="utf-8"))
        assert written["seed"] == 0
        assert written["seconds"] == SPEC["run_seconds"]
        assert written["host"] == {"nproc": 2}
        assert list(written["workloads"]) == WORKLOADS
        entry = written["workloads"]["fig14-oltp"]
        assert set(entry) == {"end_to_end", "per_layer"}
        assert entry["end_to_end"]["metrics"]["records_per_s"][
            "value"] == VALUES["records_per_s"]
        # A point compares clean against itself.
        assert main(["bench", "compare", str(out), str(out)]) == 0

    def test_seconds_override(self, tmp_path, fake_runs):
        calls, _ = fake_runs
        out = tmp_path / "BENCH_x.json"
        assert main(["bench", "run", "--seconds", "1",
                     "--out", str(out)]) == 0
        assert {c[c.index("--seconds") + 1] for c, _ in calls} == {"1"}
        assert json.loads(out.read_text(encoding="utf-8"))["seconds"] == 1

    def test_incorrect_run_exits_1(self, tmp_path, fake_runs):
        _, outcome = fake_runs
        outcome["correct"] = False
        out = tmp_path / "BENCH_x.json"
        assert main(["bench", "run", "--out", str(out)]) == 1
        assert out.exists()

    def test_refusal_passes_through(self, tmp_path, monkeypatch, capfd):
        # bench/run.py measures the default program only and refuses to
        # run with any REPRO_* variable set; the driver keeps them set
        # and hands the refusal on.
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        out = tmp_path / "BENCH_x.json"
        assert main(["bench", "run", "--seconds", "1",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert os.environ["REPRO_SCALE"] == "smoke"
        assert "refusing to run" in capfd.readouterr().err
