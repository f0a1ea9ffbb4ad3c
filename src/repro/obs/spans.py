"""Harness spans: reading, cell conservation, trace merge.

The section profiler (:mod:`repro.obs.profiler`) records one span per
timed section -- stamped with the active cell and the recording pid --
and, inside a run (:func:`repro.obs.ledger.start_run`), flushes them
next to the run ledger as append-only JSONL.  Spans are the only
host-timing record.  Spans from every process of a run (the serial
harness, each pool worker) land in one ``spans.jsonl``, so a grid run's
harness-level timeline can be merged with the per-cycle pipeline
timelines (:mod:`repro.obs.timeline`) into a single Perfetto-loadable
trace: harness spans and simulated-cycle tracks open in one viewer.

:func:`check_cell_conservation` checks the spans against independent
data, the run manifest: every covered cell is accounted to exactly one
``harness.cell`` span, in the counter-conservation style of
:mod:`repro.obs.invariants`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Mapping

from repro.obs.invariants import Violation
from repro.obs.timeline import metadata_events, write_chrome

#: Bump when the span record shape changes.
SPANS_SCHEMA_VERSION = 2

#: Chrome trace-event process id of the harness span track (the pipeline
#: timeline uses pid 1, the converted event trace pid 2).
HARNESS_PID = 3
HARNESS_PROCESS = "repro-harness"


# ----------------------------------------------------------------------
# Reading + rollups
# ----------------------------------------------------------------------

def read_spans(path: str | os.PathLike) -> list[dict]:
    """Load a ``spans.jsonl``; tolerates a truncated final line."""
    path = Path(path)
    if not path.is_file():
        return []
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                span = json.loads(line)
            except ValueError:
                continue  # torn tail write of a crashed process
            if isinstance(span, dict):
                spans.append(span)
    return spans


def check_cell_conservation(ledger_records: Iterable[Mapping],
                            spans: Iterable[Mapping]) -> list[Violation]:
    """Cell counts must match the ``harness.cell`` span population.

    Every ``harness.cell`` section the harness opens logs one ``group``
    ledger record naming the cells it covers (one cell on the serial and
    worker paths, N lanes on the batched group path).  Conservation:

    * ``harness.cell`` span count == ``group`` record count, and
    * the cells covered by groups == the terminal cells whose ``done``
      record carries ``spanned=True`` (store hits short-circuiting
      *before* any section, e.g. in the batched group planner, are
      terminal but unspanned).
    """
    violations: list[Violation] = []
    groups = []
    spanned_done: set[str] = set()
    for record in ledger_records:
        kind = record.get("kind")
        if kind == "group":
            groups.append(record)
        elif (kind == "cell" and record.get("phase") == "done"
                and record.get("spanned")):
            spanned_done.add(str(record.get("cell")))
    n_cell_spans = sum(1 for span in spans
                       if span.get("name") == "harness.cell")
    if n_cell_spans != len(groups):
        violations.append(Violation(
            "span_cell_conservation",
            f"{n_cell_spans} harness.cell spans but {len(groups)} "
            f"group records"))
    covered: set[str] = set()
    for group in groups:
        covered.update(str(cell) for cell in group.get("cells", ()))
    if covered != spanned_done:
        missing = sorted(spanned_done - covered)
        extra = sorted(covered - spanned_done)
        violations.append(Violation(
            "span_cell_conservation",
            f"group coverage mismatch: {len(covered)} covered vs "
            f"{len(spanned_done)} spanned-terminal cells"
            + (f"; unaccounted {missing[:5]}" if missing else "")
            + (f"; spurious {extra[:5]}" if extra else "")))
    return violations


# ----------------------------------------------------------------------
# Chrome trace-event export + pipeline-timeline merge
# ----------------------------------------------------------------------

def spans_to_chrome(spans: Iterable[Mapping]) -> list[dict]:
    """Convert spans to Chrome ``X`` events (one tid per recording pid).

    Timestamps are ``perf_counter_ns`` values, per-process clocks -- so
    each pid is normalised to its own earliest span.  What the viewer
    shows per track is therefore exact durations and within-process
    ordering, which is what harness spans mean.
    """
    spans = list(spans)
    starts: dict[int, int] = {}
    for span in spans:
        pid = int(span.get("pid", 0))
        start = int(span["start_ns"])
        if pid not in starts or start < starts[pid]:
            starts[pid] = start
    tids = {pid: index + 1 for index, pid in enumerate(sorted(starts))}
    out = metadata_events(HARNESS_PID, HARNESS_PROCESS,
                          {f"pid {pid}": tid for pid, tid in tids.items()})
    timed = []
    for span in spans:
        pid = int(span.get("pid", 0))
        event = {
            "ph": "X", "pid": HARNESS_PID, "tid": tids[pid],
            "name": str(span["name"]),
            "ts": round((int(span["start_ns"]) - starts[pid]) / 1000.0, 3),
            "dur": round(int(span["dur_ns"]) / 1000.0, 3),
        }
        if span.get("cell"):
            event["args"] = {"cell": span["cell"]}
        timed.append(event)
    timed.sort(key=lambda event: (event["tid"], event["ts"]))
    return out + timed


def merge_run_trace(run_dir: str | os.PathLike,
                    out_path: str | os.PathLike) -> Path:
    """One Perfetto-loadable trace: harness spans + pipeline timelines.

    Merges the run's ``spans.jsonl`` with every ``timeline-*.json``
    pipeline timeline saved into the run directory (``repro stats run
    --timeline-out`` copies its Chrome export there when a ledger is
    active).  The processes keep distinct pids and time units (harness
    spans are host microseconds, pipeline tracks are simulated cycles);
    Perfetto renders them as separate process groups in one view.
    """
    run_dir = Path(run_dir)
    events = spans_to_chrome(read_spans(run_dir / "spans.jsonl"))
    sources = ["spans.jsonl"]
    for timeline_path in sorted(run_dir.glob("timeline-*.json")):
        try:
            payload = json.loads(timeline_path.read_text(encoding="utf-8"))
        except ValueError:
            continue
        events.extend(payload.get("traceEvents", []))
        sources.append(timeline_path.name)
    return write_chrome(out_path, events, {
        "tool": "repro.obs.spans",
        "run_dir": str(run_dir),
        "sources": sources,
        "time_unit": ("harness pid 3: 1 trace us == 1 host us; "
                      "pipeline pid 1: 1 trace us == 1 simulated "
                      "cycle"),
    })
