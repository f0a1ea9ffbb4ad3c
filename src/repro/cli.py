"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compare``    -- baseline vs Skia on one workload (quickstart in a CLI).
``experiment`` -- regenerate one paper exhibit by name (fig1..fig18,
                  table1, table2, bolt, bogus, ablations,
                  comparator-zoo).
``workloads``  -- list the calibrated workload profiles.
``describe``   -- generate a workload and print its static structure.
``run``        -- simulate one cell without the result store, always
                  with attribution: print its metric snapshot, the
                  attribution summary and (with ``--window``) interval
                  sparklines, write any of the merged snapshot, the
                  attribution artifact and report, the interval series,
                  the event trace and the pipeline timeline, and check
                  the invariants once.
``stats``      -- metric snapshots: compare two saved snapshots
                  (``stats diff``), run the invariant cross-checks
                  over the Figure 14 grid or saved snapshots
                  (``stats check``), or inspect/convert a saved event
                  trace (``stats trace``).
``attrib``     -- per-branch / per-line attribution artifacts: render
                  the offender tables as markdown/HTML
                  (``attrib report``), and compare two artifacts with
                  per-branch regression gates (``attrib diff``).
``bench``      -- benchmark trajectory: run every ``BENCHMARK.json``
                  workload through ``bench/run.py`` into a
                  ``BENCH_<date>.json`` (``bench run``) and check two
                  such files against the end-to-end bounds
                  (``bench compare``).
``runs``       -- the run ledger: list recorded harness runs
                  (``runs list``) or inspect one (``runs show``) --
                  per-cell lifecycle, the cell-conservation check,
                  merged Perfetto trace export; both take
                  ``--json`` for machine-readable output.
``intervals``  -- interval series: render a saved series as
                  sparklines + markdown (``intervals plot``), or
                  compare two series (``intervals diff``).
``divergence`` -- cross-engine / cross-config divergence bisection
                  (``divergence bisect``): find the first window and
                  record where two sides disagree.

Harness commands that simulate (``experiment``, ``run``, ``stats
check``) record a run ledger under ``.repro_cache/runs/<run_id>/`` by
default; set ``REPRO_LEDGER=0`` to disable.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro import quick_compare
from repro.harness import experiments
from repro.harness.parallel import default_jobs
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import SCALES, current_scale
from repro.workloads.cache import build_program
from repro.workloads.profiles import PROFILES, WORKLOAD_NAMES

#: Exhibit name -> experiment callable taking (runner).
EXPERIMENTS = {
    "fig1": experiments.fig1_btb_miss_l1i_hit,
    "fig3": experiments.fig3_speedup_vs_btb_size,
    "fig6": experiments.fig6_miss_breakdown,
    "fig13": experiments.fig13_l1i_mpki,
    "fig14": experiments.fig14_ipc_gain,
    "fig15": experiments.fig15_btb_miss_l1i_hit,
    "fig16": experiments.fig16_mpki_reduction,
    "fig17": experiments.fig17_sbb_sensitivity,
    "fig18": experiments.fig18_decoder_idle,
    "bolt": experiments.verilator_bolt_comparison,
    "bogus": experiments.bogus_rate_audit,
    "ablation-index": experiments.ablation_index_policy,
    "ablation-paths": experiments.ablation_max_paths,
    "ablation-retired": experiments.ablation_retired_bit,
    "comparator-zoo": experiments.comparator_zoo,
}

#: ``--config`` short names for ``run`` and ``divergence bisect``: the
#: Figure 14 grid plus the Section 7.1 comparator designs (``fdipN``
#: pins the FDIP predecode depth to N lines).
CONFIG_NAMES = ("base", "skia", "head", "tail", "airbtb", "boomerang",
                "microbtb", "fdip", "fdip1", "fdip2", "fdip4", "fdip8")


#: The shared options: flags and ``add_argument`` keywords, by name.
#: The top-level parser takes all of them; a subcommand repeats the
#: ones its command reads.
COMMON_OPTIONS = {
    "scale": (("--scale",), {
        "choices": sorted(SCALES), "default": None,
        "help": "trace scale (overrides REPRO_SCALE)"}),
    "jobs": (("--jobs", "-j"), {
        "type": int, "metavar": "N", "default": None,
        "help": "simulation worker processes (0 = all CPUs; default "
                "REPRO_JOBS, else 1 = serial)"}),
    "no_store": (("--no-store",), {
        "action": "store_true", "default": False,
        "help": "skip the persistent result store (equivalent to "
                "REPRO_NO_STORE=1)"}),
}


def _add_common_options(parser: argparse.ArgumentParser,
                        *names: str) -> None:
    """Add the shared options ``names``, or all of them.

    A subcommand copy lists only the options its command reads, so a
    flag it would ignore is a usage error, and records them for
    :func:`_reject_unread_options`.  Copies use ``SUPPRESS`` defaults
    so they only overwrite the top-level values when actually given on
    the command line.
    """
    if names:
        parser.set_defaults(reads_options=names)
    for name in names or COMMON_OPTIONS:
        flags, options = COMMON_OPTIONS[name]
        if names:
            options = {**options, "default": argparse.SUPPRESS}
        parser.add_argument(*flags, **options)


def _reject_unread_options(parser: argparse.ArgumentParser,
                           args: argparse.Namespace) -> None:
    """Exit 2 on a top-level shared option the subcommand ignores.

    After the subcommand such a flag is already unrecognized; before
    it, the top-level parser accepts every shared option, so the
    subcommand's own list decides.
    """
    reads = getattr(args, "reads_options", ())
    for name, (flags, options) in COMMON_OPTIONS.items():
        if name not in reads and getattr(args, name) != options["default"]:
            parser.error(f"unrecognized arguments: {flags[0]} (the "
                         f"{args.command!r} command does not read it)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Skia (ASPLOS 2025) reproduction command line")
    _add_common_options(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare",
                             help="baseline vs Skia on one workload")
    compare.add_argument("workload", nargs="?", default="voter",
                         choices=sorted(WORKLOAD_NAMES))
    _add_common_options(compare, "scale")

    experiment = sub.add_parser("experiment",
                                help="regenerate a paper exhibit")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    # nargs="+" (not "*"): a bare --workloads used to parse as an empty
    # list, which the old truthiness guard silently dropped -- the
    # exhibit then ran the full set, and a filtered-to-nothing list
    # could reach geomean() as an empty ratio sequence.  Unknown names
    # are rejected here instead of failing deep inside trace generation.
    experiment.add_argument("--workloads", nargs="+", default=None,
                            metavar="NAME", choices=sorted(WORKLOAD_NAMES),
                            help="restrict to these workloads")
    _add_common_options(experiment, *COMMON_OPTIONS)

    workloads = sub.add_parser("workloads", help="list workload profiles")
    workloads_sub = workloads.add_subparsers(dest="workloads_command")
    period = workloads_sub.add_parser(
        "period",
        help="detect a workload trace's steady-state period and predict "
             "fast-forward coverage")
    period.add_argument("workload", choices=sorted(PROFILES))
    period.add_argument("--records", type=int, default=None, metavar="N",
                        help="trace length (default: current scale's)")
    period.add_argument("--warmup", type=int, default=None, metavar="N",
                        help="warm-up records (default: current scale's)")
    _add_common_options(period, "scale")

    describe = sub.add_parser("describe",
                              help="print a workload's static structure")
    describe.add_argument("workload", choices=sorted(PROFILES))

    tables = sub.add_parser("table", help="print a configuration table")
    tables.add_argument("which", choices=["1", "2"])

    report = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md from saved exhibits")
    report.add_argument("--results", default="benchmarks/bench_results")
    report.add_argument("--output", default="EXPERIMENTS.md")

    run = sub.add_parser(
        "run", help="simulate one cell (storeless, with attribution) and "
                    "write its snapshot, attribution, interval series, "
                    "event trace and timeline; exits non-zero on an "
                    "invariant violation")
    run.add_argument("workload", choices=sorted(WORKLOAD_NAMES))
    run.add_argument("--config", default="skia", choices=list(CONFIG_NAMES),
                     help="configuration to simulate (default: skia)")
    run.add_argument("--snapshot-out", metavar="PATH", default=None,
                     help="save the metric snapshot merged with the "
                          "attrib.* rollup keys (checkable via stats "
                          "check --snapshot)")
    run.add_argument("--attrib-out", metavar="PATH", default=None,
                     help="save the attribution artifact as JSON (input "
                          "to attrib report / diff)")
    run.add_argument("--report", metavar="PATH", default=None,
                     help="render the attribution report (markdown, or "
                          "HTML for a .html/.htm suffix)")
    run.add_argument("--top", type=int, default=20, metavar="N",
                     help="offender-table depth (default 20)")
    run.add_argument("--window", type=int, default=0, metavar="N",
                     help="records per interval window (default 0: no "
                          "interval telemetry)")
    run.add_argument("--intervals-out", metavar="PATH", default=None,
                     help="save the interval series as JSON (input to "
                          "intervals plot / diff; needs --window)")
    run.add_argument("--markdown", metavar="PATH", default=None,
                     help="write the interval series as a markdown table "
                          "(needs --window)")
    run.add_argument("--metrics", nargs="+", default=None, metavar="NAME",
                     help="interval metrics to render (default: ipc, "
                          "btb_miss_mpki, rescue_rate and the per-cause "
                          "resteer columns; needs --window)")
    run.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write the structured event trace (JSONL)")
    run.add_argument("--trace-capacity", type=int, default=65_536,
                     help="event ring-buffer size (default 65536)")
    run.add_argument("--timeline-out", metavar="PATH", default=None,
                     help="write the pipeline timeline as Chrome "
                          "trace-event JSON (Perfetto-loadable)")
    _add_common_options(run, "scale", "no_store")

    stats = sub.add_parser(
        "stats", help="metric snapshots and invariant cross-checks")
    stats_sub = stats.add_subparsers(dest="stats_command", required=True)

    stats_diff = stats_sub.add_parser(
        "diff", help="compare two saved metric snapshots")
    stats_diff.add_argument("before")
    stats_diff.add_argument("after")

    stats_check = stats_sub.add_parser(
        "check", help="invariant cross-checks over the Figure 14 grid "
                      "or over saved snapshot files")
    stats_check.add_argument("--workloads", nargs="+", default=None,
                             metavar="NAME",
                             choices=sorted(WORKLOAD_NAMES),
                             help="restrict to these workloads")
    stats_check.add_argument("--snapshot", nargs="+", default=None,
                             metavar="PATH",
                             help="check these saved snapshot files "
                                  "instead of simulating the grid")
    _add_common_options(stats_check, *COMMON_OPTIONS)

    stats_trace = stats_sub.add_parser(
        "trace", help="inspect or convert a saved event trace (JSONL)")
    stats_trace.add_argument("path", help="JSONL dump from run "
                                          "--trace-out")
    stats_trace.add_argument("--chrome", metavar="OUT", default=None,
                             help="convert to Chrome trace-event JSON "
                                  "instead of summarising")

    attrib = sub.add_parser(
        "attrib", help="per-branch / per-line attribution: who causes "
                       "the misses, who gets rescued")
    attrib_sub = attrib.add_subparsers(dest="attrib_command", required=True)

    attrib_report = attrib_sub.add_parser(
        "report", help="render a saved attribution artifact")
    attrib_report.add_argument("artifact", help="JSON from run "
                                                "--attrib-out")
    attrib_report.add_argument("--format", default=None,
                               choices=["markdown", "md", "html"],
                               help="output format (default: by --out "
                                    "suffix, else markdown)")
    attrib_report.add_argument("--out", metavar="PATH", default=None,
                               help="write to a file instead of stdout")
    attrib_report.add_argument("--top", type=int, default=20, metavar="N",
                               help="offender-table depth (default 20)")

    attrib_diff = attrib_sub.add_parser(
        "diff", help="per-branch comparison of two artifacts; exits "
                     "non-zero when any branch regresses past thresholds")
    attrib_diff.add_argument("before", help="baseline artifact JSON")
    attrib_diff.add_argument("after", help="candidate artifact JSON")
    attrib_diff.add_argument("--min-cycles", type=float, default=None,
                             metavar="CYCLES",
                             help="absolute resteer-cycle growth gate "
                                  "(default 100)")
    attrib_diff.add_argument("--min-pct", type=float, default=None,
                             metavar="PCT",
                             help="relative growth gate, percent of the "
                                  "before-value (default 10)")
    attrib_diff.add_argument("--top", type=int, default=20, metavar="N",
                             help="rows to print (default 20)")

    bench = sub.add_parser(
        "bench", help="benchmark trajectory: record and regression-gate")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_sub.add_parser(
        "run", help="run every BENCHMARK.json workload through "
                    "bench/run.py into BENCH_<date>.json")
    bench_run.add_argument("--out", metavar="PATH", default=None,
                           help="output file (default BENCH_<YYYYMMDD>"
                                ".json in the current directory)")
    bench_run.add_argument("--seconds", type=float, default=None,
                           metavar="S",
                           help="measuring time per run (default "
                                "BENCHMARK.json's run_seconds)")

    bench_compare = bench_sub.add_parser(
        "compare", help="check AFTER against BEFORE with BENCHMARK.json's "
                        "end-to-end bounds; exit 1 on a breach")
    bench_compare.add_argument("before")
    bench_compare.add_argument("after")

    runs = sub.add_parser(
        "runs", help="list or inspect recorded run ledgers")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="list recorded runs, newest first")
    runs_list.add_argument("--root", metavar="DIR", default=None,
                           help="runs root (default: REPRO_CACHE_DIR or "
                                ".repro_cache, /runs)")
    runs_list.add_argument("--json", action="store_true",
                           help="machine-readable output (one JSON array "
                                "of run summaries)")
    runs_show = runs_sub.add_parser(
        "show", help="inspect one run's manifest; exits non-zero when "
                     "cells are missing a terminal state or --check "
                     "finds a conservation violation")
    runs_show.add_argument("run_id", nargs="?", default=None,
                           help="run id (default: the latest run)")
    runs_show.add_argument("--latest", action="store_true",
                           help="select the most recent run")
    runs_show.add_argument("--cells", action="store_true",
                           help="print the per-cell lifecycle table")
    runs_show.add_argument("--check", action="store_true",
                           help="verify cell conservation: harness.cell "
                                "spans cover exactly the cells the "
                                "manifest records")
    runs_show.add_argument("--perfetto", metavar="OUT", default=None,
                           help="merge spans + pipeline timelines into "
                                "one Perfetto-loadable trace file")
    runs_show.add_argument("--root", metavar="DIR", default=None,
                           help="runs root (default: REPRO_CACHE_DIR or "
                                ".repro_cache, /runs)")
    runs_show.add_argument("--json", action="store_true",
                           help="machine-readable output (one JSON run "
                                "summary with per-cell lifecycle)")

    intervals = sub.add_parser(
        "intervals", help="interval telemetry: per-window counter time "
                          "series")
    intervals_sub = intervals.add_subparsers(dest="intervals_command",
                                             required=True)
    intervals_plot = intervals_sub.add_parser(
        "plot", help="render a saved series as sparklines + a markdown "
                     "table")
    intervals_plot.add_argument("series", help="JSON from run "
                                               "--intervals-out")
    intervals_plot.add_argument("--metrics", nargs="+", default=None,
                                metavar="NAME",
                                help="metrics to render")
    intervals_plot.add_argument("--out", metavar="PATH", default=None,
                                help="write to a file instead of stdout")

    intervals_diff = intervals_sub.add_parser(
        "diff", help="compare two saved series; exits non-zero when "
                     "they differ")
    intervals_diff.add_argument("a", help="baseline series JSON")
    intervals_diff.add_argument("b", help="candidate series JSON")
    intervals_diff.add_argument("--top", type=int, default=20, metavar="N",
                                help="differing rows to print (default 20)")

    divergence = sub.add_parser(
        "divergence", help="cross-engine / cross-config divergence "
                           "bisection")
    divergence_sub = divergence.add_subparsers(dest="divergence_command",
                                               required=True)
    divergence_bisect = divergence_sub.add_parser(
        "bisect", help="find the first window and record where two "
                       "sides disagree; exits 1 when they diverge")
    divergence_bisect.add_argument("workload",
                                   choices=sorted(WORKLOAD_NAMES))
    divergence_bisect.add_argument("--a", dest="engine_a",
                                   default="compiled",
                                   choices=["compiled", "batched"],
                                   help="A-side engine (default: compiled)")
    divergence_bisect.add_argument("--b", dest="engine_b",
                                   default="batched",
                                   choices=["compiled", "batched"],
                                   help="B-side engine (default: batched)")
    divergence_bisect.add_argument("--config", default="skia",
                                   choices=list(CONFIG_NAMES),
                                   help="configuration for both sides "
                                        "(default: skia)")
    divergence_bisect.add_argument("--config-b", default=None,
                                   choices=list(CONFIG_NAMES),
                                   help="B-side configuration (default: "
                                        "same as --config; when it "
                                        "differs, only counter rows are "
                                        "compared)")
    divergence_bisect.add_argument("--window", type=int, default=1000,
                                   metavar="N",
                                   help="window-pass granularity in "
                                        "records (default 1000)")
    divergence_bisect.add_argument("--json", metavar="PATH", default=None,
                                   help="save the report as JSON")
    divergence_bisect.add_argument("--no-events", action="store_true",
                                   help="skip the oracle event replay "
                                        "of the divergent record")
    _add_common_options(divergence_bisect, "scale")
    return parser


def _run_compare(args) -> int:
    scale = SCALES[args.scale] if args.scale else current_scale()
    result = quick_compare(args.workload, records=scale.records,
                           warmup=scale.warmup)
    print(result.render())
    return 0


def _run_experiment(args) -> int:
    scale = SCALES[args.scale] if args.scale else current_scale()
    store = None if args.no_store else "default"
    runner = ExperimentRunner(scale=scale, store=store)
    function = EXPERIMENTS[args.name]
    kwargs = {}
    if args.workloads is not None:
        kwargs["workloads"] = args.workloads
    # Batch the exhibit's whole grid first, serial or not; the exhibit
    # function then assembles its tables from memo hits.
    experiments.prefetch_exhibit(runner, args.name, jobs=args.jobs,
                                 **kwargs)
    result = function(runner, **kwargs)
    print(result["render"])
    return 0


def _run_workloads() -> int:
    for name in WORKLOAD_NAMES:
        profile = PROFILES[name]
        expected = profile.expected
        print(f"{name:18s} {profile.suite:12s} "
              f"paper gain {expected.ipc_gain_pct:5.1f}% "
              f"({expected.gain_class})")
    return 0


def _run_workloads_period(args) -> int:
    """``repro workloads period``: trace periodicity + skip forecast."""
    from repro.workloads.cache import build_trace

    scale = SCALES[args.scale] if args.scale else current_scale()
    n_records = args.records if args.records is not None else scale.records
    warmup = args.warmup if args.warmup is not None else scale.warmup
    detected = build_trace(args.workload, n_records).period()
    if detected is None:
        print(f"{args.workload}: no detected period over {n_records} "
              f"records (aperiodic trace; fast-forward falls back to "
              f"plain stepping)")
        return 0
    period, preamble = detected
    periods = (n_records - preamble) // period
    print(f"{args.workload}: period {period} records, preamble {preamble} "
          f"({periods} whole periods in {n_records} records)")
    # Mirrors FastForward's feasibility rule with quantum == period
    # (interval telemetry widens the quantum to lcm(period, window)).
    first = max(warmup + 1, preamble, 1)
    if first + 2 * period > n_records:
        print(f"  fast-forward infeasible at warmup {warmup}: first probe "
              f"at {first} needs {first + 2 * period} <= {n_records}")
        return 0
    earliest_skip = first + period
    coverage = ((n_records - earliest_skip) // period) * period
    print(f"  first probe at {first}, quantum {period}; predicted "
          f"fast-forward coverage up to {coverage} records "
          f"({100.0 * coverage / n_records:.1f}%) at warmup {warmup}")
    return 0


def _run_describe(args) -> int:
    program = build_program(args.workload)
    print(program.describe())
    return 0


def _run_table(args) -> int:
    if args.which == "1":
        print(experiments.table1_config()["render"])
    else:
        print(experiments.table2_benchmarks()["render"])
    return 0


def _stats_config(name: str):
    """Resolve a ``--config`` short name (see :data:`CONFIG_NAMES`).

    Covers the Figure 14 grid plus the Section 7.1 comparator designs;
    ``fdipN`` selects the FDIP comparator at predecode depth ``N``.
    """
    from repro.frontend.comparators import COMPARATOR_NAMES
    from repro.frontend.config import FrontEndConfig, SkiaConfig

    if name == "base":
        return FrontEndConfig()
    if name.startswith("fdip") and name[4:].isdigit():
        return FrontEndConfig().with_fdip_depth(int(name[4:]))
    if name in COMPARATOR_NAMES:
        return FrontEndConfig().with_comparator(name)
    heads = name in ("skia", "head")
    tails = name in ("skia", "tail")
    return FrontEndConfig(skia=SkiaConfig(decode_heads=heads,
                                          decode_tails=tails))


def _print_violations(violations, label: str) -> None:
    for violation in violations:
        print(f"INVARIANT VIOLATION [{label}] {violation}")


def _run_cell(args) -> int:
    """``repro run``: one storeless cell with attribution and every
    requested observer attached, then one invariant check over its
    metric snapshot merged with the attribution rollup."""
    import dataclasses

    from repro.obs import (AttributionAggregator, EventTrace, IntervalSeries,
                           TimelineRecorder, applicable_invariants,
                           check_snapshot, render_report, render_snapshot,
                           save_snapshot, sparkline)
    from repro.obs import ledger as ledger_mod

    if args.window < 0 or not args.window and (
            args.intervals_out or args.markdown or args.metrics):
        print("--window takes N >= 0, and --intervals-out, --markdown and "
              "--metrics need N > 0", file=sys.stderr)
        return 2
    scale = SCALES[args.scale] if args.scale else current_scale()
    config = _stats_config(args.config)
    if args.window:
        config = dataclasses.replace(config, interval_size=args.window)
    trace = (EventTrace(capacity=args.trace_capacity) if args.trace_out
             else None)
    timeline = TimelineRecorder() if args.timeline_out else None

    def attach(simulator) -> None:
        if trace is not None:
            simulator.attach_trace(trace)
        if timeline is not None:
            simulator.attach_timeline(timeline)

    # Storeless, so the cell always simulates and the attachments fill.
    runner = ExperimentRunner(scale=scale, store=None,
                              record_attribution=True)
    stats = runner.run(args.workload, config, setup=attach)
    metrics = runner.metrics_for(args.workload, config)
    aggregator = AttributionAggregator.from_jsonable(
        runner.attribution_for(args.workload, config))
    label = f"{args.workload} [{args.config}] @ {scale.name} scale"
    print(render_snapshot(metrics, title=label))

    totals = aggregator.totals()
    fraction = aggregator.shadow_resident_fraction
    print(f"\n{int(totals['branches'])} branches over "
          f"{int(totals['lines'])} lines attributed")
    print(f"  BTB misses {int(totals['btb_misses'])}, shadow-resident "
          f"{int(totals['btb_miss_l1i_hit'])} ({fraction:.1%}; "
          f"SimStats fraction {stats.btb_miss_l1i_hit_fraction:.1%})")
    print(f"  SBB rescues {int(totals.get('sbb_hits', 0))} "
          f"(U {int(totals['sbb_hits_u'])} / R {int(totals['sbb_hits_r'])}), "
          f"resteer cycles {totals['resteer_cycles_total']:.0f}")
    if args.attrib_out:
        aggregator.save(args.attrib_out)
        print(f"artifact -> {args.attrib_out}")
    if args.report:
        fmt = _attrib_report_format(None, args.report)
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(render_report(aggregator, fmt=fmt, top=args.top))
        print(f"report ({fmt}) -> {args.report}")

    if args.window:
        series = IntervalSeries.from_jsonable(
            runner.intervals_for(args.workload, config))
        print(f"\n{series.windows} windows x {series.interval_size} "
              f"records, fingerprint {series.fingerprint()}")
        for metric in (args.metrics or series.metric_names()):
            print(f"  {metric:24s} {sparkline(series.metric_series(metric))}")
        if args.intervals_out:
            series.save(args.intervals_out)
            print(f"series -> {args.intervals_out}")
        if args.markdown:
            with open(args.markdown, "w", encoding="utf-8") as handle:
                handle.write(series.render_markdown(args.metrics))
            print(f"time series -> {args.markdown}")

    if trace is not None:
        trace.to_jsonl(args.trace_out)
        print(f"trace: {trace.emitted} events emitted, {trace.dropped} "
              f"dropped -> {args.trace_out}")
    if timeline is not None:
        timeline.to_chrome(args.timeline_out)
        ledger = ledger_mod.active_ledger()
        if ledger is not None:
            # Also file the chrome export with the run, so `repro runs
            # show --perfetto` merges it with the harness spans.
            timeline.to_chrome(ledger.timeline_path(
                ledger_mod.cell_id_for(args.workload, config, 0, False)))
        print(f"timeline: {timeline.emitted} events emitted, "
              f"{timeline.dropped} dropped -> {args.timeline_out} "
              f"(load in Perfetto / chrome://tracing)")

    merged = {**metrics, **aggregator.snapshot()}
    if args.snapshot_out:
        save_snapshot(args.snapshot_out, merged,
                      meta={"workload": args.workload, "config": args.config,
                            "scale": scale.name, "window": args.window})
        print(f"merged snapshot -> {args.snapshot_out}")
    violations = check_snapshot(merged)
    if violations:
        _print_violations(violations, f"{args.workload}/{args.config}")
        return 1
    conserved = "attribution and interval" if args.window else "attribution"
    print(f"\ninvariants: {len(applicable_invariants(merged))} checked "
          f"({conserved} conservation included), all passing")
    return 0


def _run_stats_diff(args) -> int:
    from repro.harness.reporting import format_table
    from repro.obs import diff_snapshots, load_snapshot

    before, _ = load_snapshot(args.before)
    after, _ = load_snapshot(args.after)
    changed = diff_snapshots(before, after)
    if not changed:
        print("snapshots are identical")
        return 0
    rows = []
    for key, (a, b) in changed.items():
        rows.append([key,
                     "-" if a is None else a,
                     "-" if b is None else b])
    print(format_table(["metric", args.before, args.after], rows))
    return 0


def _check_snapshot_files(paths) -> int:
    """``stats check --snapshot``: check saved snapshot files."""
    from repro.obs import applicable_invariants, check_snapshot, load_snapshot

    failures = 0
    for path in paths:
        snapshot, meta = load_snapshot(path)
        label = meta.get("workload", path) if meta else path
        violations = check_snapshot(snapshot)
        if violations:
            _print_violations(violations, str(label))
            failures += 1
        else:
            checked = len(applicable_invariants(snapshot))
            print(f"{path}: {checked} invariants checked, all passing")
    return 1 if failures else 0


def _run_stats_check(args) -> int:
    from repro.harness.parallel import Cell
    from repro.obs import check_snapshot

    if args.snapshot:
        return _check_snapshot_files(args.snapshot)

    scale = SCALES[args.scale] if args.scale else current_scale()
    store = None if args.no_store else "default"
    runner = ExperimentRunner(scale=scale, store=store)
    workloads = args.workloads or list(WORKLOAD_NAMES)
    configs = {name: _stats_config(name)
               for name in ("base", "head", "tail", "skia")}

    cells = [Cell(workload, config)
             for workload in workloads for config in configs.values()]
    runner.run_cells(cells, jobs=args.jobs)

    failures = 0
    unavailable = 0
    for workload in workloads:
        for name, config in configs.items():
            metrics = runner.metrics_for(workload, config)
            if metrics is None:
                print(f"no metric snapshot for {workload}/{name} "
                      f"(stale store entry? re-run without it)")
                unavailable += 1
                continue
            violations = check_snapshot(metrics)
            if violations:
                _print_violations(violations, f"{workload}/{name}")
                failures += 1
    checked = len(workloads) * len(configs)
    print(f"checked {checked} cells ({len(workloads)} workloads x "
          f"{len(configs)} configs) at {scale.name} scale: "
          f"{failures} failing, {unavailable} without snapshots")
    return 1 if failures or unavailable else 0


def _run_stats_trace(args) -> int:
    import json

    from repro.obs import chrome_from_jsonl

    if args.chrome:
        out = chrome_from_jsonl(args.path, args.chrome)
        print(f"chrome trace -> {out} (load in Perfetto / "
              f"chrome://tracing)")
        return 0
    header = None
    counts: dict[str, int] = {}
    with open(args.path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            kind = event.get("kind", "?")
            if kind == "trace_header":
                header = event
                continue
            counts[kind] = counts.get(kind, 0) + 1
    if header is not None:
        print(f"capacity {header.get('capacity')}, "
              f"emitted {header.get('emitted')}, "
              f"dropped {header.get('dropped')}")
    for kind in sorted(counts):
        print(f"{kind:10s} {counts[kind]}")
    return 0


def _run_stats(args) -> int:
    if args.stats_command == "diff":
        return _run_stats_diff(args)
    if args.stats_command == "trace":
        return _run_stats_trace(args)
    return _run_stats_check(args)


def _attrib_report_format(explicit: str | None, out: str | None) -> str:
    if explicit:
        return "markdown" if explicit == "md" else explicit
    if out and out.lower().endswith((".html", ".htm")):
        return "html"
    return "markdown"


def _run_attrib_report(args) -> int:
    from repro.obs.attribution import AttributionAggregator, render_report

    aggregator = AttributionAggregator.load(args.artifact)
    fmt = _attrib_report_format(args.format, args.out)
    rendered = render_report(aggregator, fmt=fmt, top=args.top)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"report ({fmt}) -> {args.out}")
    else:
        print(rendered)
    return 0


def _run_attrib_diff(args) -> int:
    from repro.obs.attribution import (DIFF_MIN_CYCLES, DIFF_MIN_PCT,
                                       AttributionAggregator,
                                       diff_attributions)

    before = AttributionAggregator.load(args.before)
    after = AttributionAggregator.load(args.after)
    diff = diff_attributions(
        before, after,
        min_cycles=(args.min_cycles if args.min_cycles is not None
                    else DIFF_MIN_CYCLES),
        min_pct=(args.min_pct if args.min_pct is not None
                 else DIFF_MIN_PCT))
    if not diff.deltas:
        print("no per-branch attribution movement")
        return 0
    print(f"comparing {args.before} -> {args.after}")
    print(diff.render(top=args.top))
    return 1 if diff.regressions else 0


def _run_attrib(args) -> int:
    if args.attrib_command == "report":
        return _run_attrib_report(args)
    return _run_attrib_diff(args)


#: The checkout root: ``bench/`` and ``BENCHMARK.json`` sit beside
#: ``src/``.
CHECKOUT = Path(__file__).resolve().parents[2]


def _benchmark_spec() -> dict:
    import json

    return json.loads((CHECKOUT / "BENCHMARK.json").read_text(
        encoding="utf-8"))


def _run_bench_run(args) -> int:
    """Run ``bench/run.py`` once per workload with ``--trace 0`` and once
    with ``--trace 1``, each in its own process (so ``peak_rss_mb`` is
    per run), and write their result lines to one trajectory point."""
    import json
    import subprocess
    import time

    spec = _benchmark_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    command = [sys.executable, *spec["command"][1:]]
    point: dict = {"host": None, "seconds": seconds, "seed": 0,
                   "workloads": {}}
    correct = True
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs = point["workloads"][workload] = {}
        for trace, part in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", workload, "--seed", "0",
                    "--seconds", f"{seconds:g}", "--trace", str(trace)]
            done = subprocess.run(command + argv, cwd=CHECKOUT,
                                  stdout=subprocess.PIPE, text=True)
            if done.returncode:
                # A refusal (e.g. REPRO_* set) already explained itself
                # on stderr, which is passed through.
                print(f"bench/run.py {' '.join(argv)} exited "
                      f"{done.returncode}", file=sys.stderr)
                return done.returncode
            report, result = map(json.loads, done.stdout.splitlines()[-2:])
            point["host"] = report["host"]
            runs[part] = result
            correct = correct and result["correct"] and not result["failed"]
            shown = "" if trace else "; " + ", ".join(
                f"{name} {metric['value']:.4g}"
                for name, metric in result["metrics"].items())
            print(f"{workload} --trace {trace}: "
                  f"{'correct' if result['correct'] else 'INCORRECT'}, "
                  f"{result['failed']}/{result['attempted']} cells "
                  f"failed{shown}")
    path = Path(args.out or f"BENCH_{time.strftime('%Y%m%d')}.json")
    path.write_text(json.dumps(point, indent=1) + "\n",
                    encoding="utf-8")
    print(f"trajectory point -> {path}")
    return 0 if correct else 1


def compare_points(before: dict, after: dict, spec: dict
                   ) -> tuple[list[str], list[str]]:
    """``(breaches, report lines)`` of ``after`` against ``before``.

    A breach is an end-to-end metric worse than before by more than its
    ``BENCHMARK.json`` bound (relative, in its ``better`` direction), or
    a run that is not correct or fails a larger share of its cells.
    Raises ``KeyError``/``TypeError`` when either point lacks a
    workload, run or metric the spec names.
    """
    breaches: list[str] = []
    lines: list[str] = []

    def note(line: str, breach: bool) -> None:
        if breach:
            line += "  BREACH"
            breaches.append(line)
        lines.append(line)

    for workload in (entry["name"] for entry in spec["workloads"]):
        runs = before["workloads"][workload], after["workloads"][workload]
        for part in ("end_to_end", "per_layer"):
            old, new = (run[part] for run in runs)
            shares = [run["failed"] / max(run["attempted"], 1)
                      for run in (old, new)]
            note(f"{workload} {part}: {old['failed']}/{old['attempted']} "
                 f"-> {new['failed']}/{new['attempted']} cells failed",
                 not new["correct"] or shares[1] > shares[0])
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old, new = (run["end_to_end"]["metrics"][name]["value"]
                        for run in runs)
            change = (new - old) / old if old else 0.0
            worse = change if metric["better"] == "lower" else -change
            note(f"{workload} {name}: {old:.4g} -> {new:.4g} "
                 f"{metric['unit']} ({change:+.1%}, bound {bound:.0%})",
                 worse > bound)
    return breaches, lines


def _run_bench_compare(args) -> int:
    import json

    try:
        points = [json.loads(Path(path).read_text(encoding="utf-8"))
                  for path in (args.before, args.after)]
        breaches, lines = compare_points(*points, _benchmark_spec())
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"cannot compare {args.before} with {args.after}: "
              f"{type(error).__name__}: {error}")
        return 2
    print(f"comparing {args.before} -> {args.after}")
    for line in lines:
        print(line)
    if breaches:
        print(f"{len(breaches)} breach(es) of BENCHMARK.json bounds")
        return 1
    print("every end-to-end metric within its bound")
    return 0


def _run_bench(args) -> int:
    if args.bench_command == "run":
        return _run_bench_run(args)
    return _run_bench_compare(args)


def _print_run_summary(summary) -> None:
    results = summary.results()
    outcome = (", ".join(f"{count} {label}" for label, count
                         in sorted(results.items())) or "-")
    print(f"run {summary.run_id}")
    print(f"  command:  {summary.command or '-'}")
    print(f"  created:  {summary.created or '-'}  "
          f"(schema v{summary.schema_version})")
    print(f"  status:   {summary.status}")
    print(f"  cells:    {len(summary.cells)} seen / "
          f"{summary.grid_cells} submitted ({outcome})")
    print(f"  groups:   {summary.groups} harness.cell sections over "
          f"{summary.group_cells} cells")
    if summary.heartbeat_pids:
        pids = ", ".join(str(pid) for pid in sorted(summary.heartbeat_pids))
        print(f"  workers:  heartbeats from pid {pids}")
    if summary.stragglers:
        print(f"  stragglers: {', '.join(summary.stragglers)}")
    if summary.incomplete:
        print(f"  INCOMPLETE cells (no terminal state): "
              f"{', '.join(summary.incomplete)}")


def _summary_jsonable(summary, cells: bool = False) -> dict:
    """A ``RunSummary`` as a stable JSON-safe dict (the ``--json``
    contract of ``runs list`` / ``runs show``; documented in
    docs/observability.md)."""
    out = {
        "run_id": summary.run_id,
        "command": summary.command,
        "created": summary.created,
        "schema_version": summary.schema_version,
        "status": summary.status,
        "cells_seen": len(summary.cells),
        "cells_submitted": summary.grid_cells,
        "results": summary.results(),
        "groups": summary.groups,
        "group_cells": summary.group_cells,
        "heartbeat_pids": sorted(summary.heartbeat_pids),
        "stragglers": summary.stragglers,
        "incomplete": summary.incomplete,
    }
    if cells:
        out["cells"] = {
            cell_id: {"phases": list(state.phases),
                      "result": state.fields.get("result",
                                                 state.terminal),
                      "wall_s": state.wall_s,
                      "straggler": state.straggler}
            for cell_id, state in sorted(summary.cells.items())}
    return out


def _run_runs(args) -> int:
    import json

    from repro.obs import ledger as ledger_mod

    if args.runs_command == "list":
        summaries = ledger_mod.list_runs(args.root)
        if args.json:
            print(json.dumps([_summary_jsonable(summary)
                              for summary in summaries], indent=2))
            return 0
        if not summaries:
            print(f"no runs under {ledger_mod.runs_root(args.root)}")
            return 0
        for summary in summaries:
            results = summary.results()
            outcome = (",".join(f"{label}:{count}" for label, count
                                in sorted(results.items())) or "-")
            print(f"{summary.run_id}  {summary.status:12s} "
                  f"{len(summary.cells):4d} cells  {outcome:24s} "
                  f"{summary.command}")
        return 0

    # runs show
    run_id = args.run_id
    if run_id is None or args.latest:
        run_id = ledger_mod.latest_run_id(args.root)
        if run_id is None:
            print(f"no runs under {ledger_mod.runs_root(args.root)}")
            return 2
    summary = ledger_mod.load_run(run_id, args.root)
    if not summary.cells and summary.command == "":
        print(f"no manifest for run {run_id} under "
              f"{ledger_mod.runs_root(args.root)}")
        return 2
    if args.json:
        # The JSON view always carries the per-cell lifecycle, and
        # short-circuits the human-oriented extras (--check output and
        # --perfetto progress lines are not JSON).
        print(json.dumps(_summary_jsonable(summary, cells=True), indent=2))
        return 1 if summary.incomplete else 0
    _print_run_summary(summary)
    failures = 1 if summary.incomplete else 0

    if args.cells:
        print("\n  cell                                     phases"
              "                     result      wall")
        for cell_id in sorted(summary.cells):
            state = summary.cells[cell_id]
            phases = ">".join(state.phases)
            result = state.fields.get("result", state.terminal or "-")
            wall = state.wall_s
            wall_text = f"{wall:.3f}s" if wall is not None else "-"
            flag = " STRAGGLER" if state.straggler else ""
            print(f"  {cell_id:40s} {phases:26s} {result:11s} "
                  f"{wall_text}{flag}")

    if args.check:
        from repro.obs import check_cell_conservation, read_spans
        from repro.obs.ledger import read_manifest

        records = read_manifest(summary.run_dir / "manifest.jsonl")
        spans = read_spans(summary.run_dir / "spans.jsonl")
        violations = check_cell_conservation(records, spans)
        if violations:
            _print_violations(violations, run_id)
            failures += len(violations)
        else:
            print(f"\n  conservation: {summary.groups} harness.cell "
                  f"spans == group records; cell coverage exact "
                  f"({len(spans)} spans)")

    if args.perfetto:
        from repro.obs import merge_run_trace

        out = merge_run_trace(summary.run_dir, args.perfetto)
        print(f"\n  merged Perfetto trace -> {out}")
    return 1 if failures else 0


def _run_intervals(args) -> int:
    from repro.obs.intervals import IntervalSeries, diff_series

    if args.intervals_command == "plot":
        series = IntervalSeries.load(args.series)
        rendered = series.render_markdown(args.metrics)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
            print(f"time series -> {args.out}")
        else:
            print(rendered, end="")
        return 0

    # intervals diff
    series_a = IntervalSeries.load(args.a)
    series_b = IntervalSeries.load(args.b)
    differences = diff_series(series_a, series_b)
    if not differences:
        print(f"series are identical ({series_a.windows} windows, "
              f"fingerprint {series_a.fingerprint()})")
        return 0
    print(f"comparing {args.a} (fingerprint "
          f"{series_a.fingerprint()}) -> {args.b} (fingerprint "
          f"{series_b.fingerprint()})")
    for window, column, a_val, b_val in differences[:args.top]:
        where = "geometry" if window < 0 else f"window {window}"
        print(f"  {where}: {column} {a_val} vs {b_val}")
    if len(differences) > args.top:
        print(f"  ... {len(differences) - args.top} more")
    return 1


def _run_divergence(args) -> int:
    import json

    from repro.obs.divergence import bisect_divergence
    from repro.workloads.cache import build_trace

    scale = SCALES[args.scale] if args.scale else current_scale()
    config_a = _stats_config(args.config)
    config_b = (_stats_config(args.config_b)
                if args.config_b is not None else None)
    program = build_program(args.workload)
    compiled = build_trace(args.workload, scale.records)
    report = bisect_divergence(
        program, compiled, config_a, config_b,
        engine_a=args.engine_a, engine_b=args.engine_b,
        warmup=scale.warmup, window=args.window,
        oracle_events=not args.no_events)
    print(report.render(), end="")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_jsonable(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"report -> {args.json}")
    return 0 if report.identical else 1


def _dispatch(args) -> int:
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "experiment":
        return _run_experiment(args)
    if args.command == "workloads":
        if getattr(args, "workloads_command", None) == "period":
            return _run_workloads_period(args)
        return _run_workloads()
    if args.command == "describe":
        return _run_describe(args)
    if args.command == "table":
        return _run_table(args)
    if args.command == "report":
        from repro.harness.report import generate
        generate(results_dir=args.results, output=args.output)
        print(f"wrote {args.output}")
        return 0
    if args.command == "run":
        return _run_cell(args)
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "attrib":
        return _run_attrib(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "runs":
        return _run_runs(args)
    if args.command == "intervals":
        return _run_intervals(args)
    if args.command == "divergence":
        return _run_divergence(args)
    return 2  # pragma: no cover - argparse enforces choices


def _ledgered_command(args) -> str | None:
    """The run-ledger command label, or ``None`` for unledgered commands.

    Only entry points that simulate get a run: the inspection commands
    (``runs``, diffs, reports, plots) would just clutter the runs
    root with empty manifests.  ``--no-store`` keeps its contract of
    leaving no ``.repro_cache/`` behind, so it suppresses the ledger
    too (``REPRO_LEDGER=0``/``1`` still overrides either way).
    """
    if "REPRO_LEDGER" not in os.environ:
        from repro.harness.store import store_enabled

        if getattr(args, "no_store", False) or not store_enabled():
            return None
    if args.command == "experiment":
        return f"experiment {args.name}"
    if args.command == "run":
        window = f" --window {args.window}" if args.window else ""
        return f"run {args.workload} --config {args.config}{window}"
    if (args.command == "stats" and args.stats_command == "check"
            and not args.snapshot):
        return "stats check"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _reject_unread_options(parser, args)
    if args.jobs is None:
        # Absent flag: REPRO_JOBS when set (0 = all CPUs), else serial.
        args.jobs = default_jobs() if os.environ.get(
            "REPRO_JOBS", "").strip() else 1
    command = _ledgered_command(args)
    if command is not None:
        from repro.obs.ledger import start_run

        with start_run(command):
            return _dispatch(args)
    return _dispatch(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
