"""Observability: metrics registry, event tracing, invariant checks.

The simulator's counters are the evidence behind every reproduced claim
(the ~75% shadow-resident BTB-miss fraction, the ~5.7% geomean, the 2x
marginal value over equal-area BTB state), so they get a first-class
subsystem:

* :mod:`repro.obs.registry` -- a lightweight metrics registry.  Each
  hardware component (BTB, U-SBB/R-SBB, RAS, SBD, comparators, the FDIP
  engine) registers a named *scope* of counters, gauges and histograms;
  ``snapshot()`` flattens everything into one ``{name: value}`` dict
  that can be persisted and diffed.
* :mod:`repro.obs.trace` -- an opt-in ring-buffered structured event
  trace (BTB/SBB hits and misses, shadow-decode head/tail outcomes,
  resteers with cause and latency), dumpable as JSONL.
* :mod:`repro.obs.invariants` -- declared cross-checks over a metric
  snapshot (``btb_miss == sbb_hit + sbb_miss``, resteer causes sum to
  total resteers, SBB insertions cover evictions + occupancy, ...).
  ``repro stats`` runs them from the CLI; the tier-1 suite runs them
  over the Figure 14 grid.
* :mod:`repro.obs.attribution` -- per-static-branch and per-cache-line
  rollups of the event stream (who causes the BTB misses, who gets
  rescued, where the resteer cycles go), conserved exactly against the
  aggregate ``SimStats`` counters and exposed as ``repro attrib``.
* :mod:`repro.obs.timeline` -- an opt-in per-cycle pipeline timeline
  (IAG/fetch/decode/retire/SBD tracks) exported as Chrome trace-event
  JSON for Perfetto / ``chrome://tracing``.
* :mod:`repro.obs.intervals` -- per-window counter deltas (every
  ``interval_size`` retired records, cut identically by all three
  engines) frozen into a fingerprinted columnar ``IntervalSeries``;
  column sums equal the aggregate counters exactly
  (``interval_conservation``).
* :mod:`repro.obs.divergence` -- lockstep-by-window comparison of two
  engines or configs over the same trace, localizing the first
  divergent window, then the first divergent record under the object
  oracle with a full event trace and a state diff.
* :mod:`repro.obs.profiler` -- a host-side section profiler
  (``perf_counter_ns``, nesting, self time) threaded through the
  harness; each timed section becomes one span, the only host-timing
  record.
* :mod:`repro.obs.ledger` -- the run ledger: every ledgered harness
  invocation gets a run id and an append-only JSONL manifest under
  ``.repro_cache/runs/<run_id>/`` with a lifecycle record per cell,
  diagnosable even for crashed runs; ``repro runs list/show``.
* :mod:`repro.obs.spans` -- reading a run's ``spans.jsonl``: the
  cell-conservation check against the manifest, and the merge with
  pipeline timelines into one Perfetto-loadable trace.

Nothing here is on the simulation hot path unless enabled: gauges are
sampled lazily at snapshot time from counters the components already
maintain, and tracing costs nothing when no trace is attached.
"""

from __future__ import annotations

from repro.obs.attribution import (
    AttributionAggregator,
    AttributionDiff,
    BranchAttribution,
    LineAttribution,
    diff_attributions,
    render_report,
)
from repro.obs.digests import probe_digest, state_digest
from repro.obs.divergence import (
    DivergenceReport,
    WindowDigest,
    bisect_divergence,
)
from repro.obs.intervals import (
    IntervalCollector,
    IntervalSeries,
    diff_series,
    sparkline,
)
from repro.obs.invariants import (
    INVARIANTS,
    Violation,
    applicable_invariants,
    check_snapshot,
    snapshot_from_stats,
)
from repro.obs.ledger import (
    RunLedger,
    active_ledger,
    flag_stragglers,
    list_runs,
    load_run,
    read_manifest,
    start_run,
    summarize,
)
from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    Scope,
    diff_snapshots,
    load_snapshot,
    render_snapshot,
    save_snapshot,
)
from repro.obs.profiler import PROFILER, SectionProfiler
from repro.obs.spans import (
    check_cell_conservation,
    merge_run_trace,
    read_spans,
)
from repro.obs.timeline import (
    TimelineRecorder,
    chrome_from_jsonl,
    chrome_from_trace_events,
)
from repro.obs.trace import DroppedEventsWarning, EventTrace

__all__ = [
    "AttributionAggregator",
    "AttributionDiff",
    "BranchAttribution",
    "DivergenceReport",
    "DroppedEventsWarning",
    "EventTrace",
    "IntervalCollector",
    "IntervalSeries",
    "LineAttribution",
    "WindowDigest",
    "bisect_divergence",
    "diff_attributions",
    "diff_series",
    "render_report",
    "Histogram",
    "INVARIANTS",
    "MetricsRegistry",
    "PROFILER",
    "RunLedger",
    "Scope",
    "SectionProfiler",
    "TimelineRecorder",
    "Violation",
    "active_ledger",
    "applicable_invariants",
    "check_cell_conservation",
    "check_snapshot",
    "chrome_from_jsonl",
    "chrome_from_trace_events",
    "diff_snapshots",
    "flag_stragglers",
    "list_runs",
    "load_run",
    "load_snapshot",
    "merge_run_trace",
    "probe_digest",
    "read_manifest",
    "read_spans",
    "render_snapshot",
    "save_snapshot",
    "snapshot_from_stats",
    "sparkline",
    "start_run",
    "state_digest",
    "summarize",
]
