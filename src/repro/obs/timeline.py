"""Per-cycle pipeline timeline, exported as Chrome trace-event JSON.

The front-end simulator is timeline-algebraic: each FTQ entry carries
explicit IAG/fetch/decode/retire clocks.  :class:`TimelineRecorder`
captures those clocks as *spans* (one track per pipeline stage, one span
per basic block) plus *instant* events for BTB misses, SBB hits and each
resteer cause, and serialises everything in the Chrome trace-event
format -- the JSON dialect ``chrome://tracing`` and Perfetto load
directly.  One simulated cycle maps to one trace-time microsecond, so
the decoder-idle gaps of Figure 18 and the FDIP runahead of Figure 2 are
visible as literal gaps between spans.

Like :class:`repro.obs.trace.EventTrace`, the recorder is a bounded ring
buffer, entirely opt-in (``FrontEndConfig(record_timeline=True)`` or
``simulator.attach_timeline(...)``), and filled after the run: with a
recorder attached, either engine keeps one stage-time row per record
next to its outcome row, and :meth:`TimelineRecorder.render` turns the
two into spans and instants once the run ends.

:func:`chrome_from_trace_events` additionally converts an *event trace*
(the JSONL ring buffer of :mod:`repro.obs.trace`) into the same format,
using the event sequence number as the time axis -- uniform tooling for
both kinds of dump (``repro stats trace --chrome``).
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Iterable, Iterator

#: Track (thread) ids of the pipeline timeline, in display order.
TRACKS = {
    "iag": 1,
    "fetch": 2,
    "decode": 3,
    "retire": 4,
    "sbd.head": 5,
    "sbd.tail": 6,
}

#: Process id / name of the pipeline timeline.
PIPELINE_PID = 1
PIPELINE_PROCESS = "repro-frontend"

#: Process id / name used when converting an EventTrace JSONL dump.
EVENT_TRACE_PID = 2
EVENT_TRACE_PROCESS = "repro-event-trace"
EVENT_TRACE_TRACKS = {"btb": 1, "sbb": 2, "sbd": 3, "resteer": 4}


def metadata_events(pid: int, process: str,
                     tracks: dict[str, int]) -> list[dict]:
    """Chrome ``M`` events naming the process and its tracks."""
    events = [{"ph": "M", "pid": pid, "name": "process_name",
               "args": {"name": process}}]
    for track, tid in tracks.items():
        events.append({"ph": "M", "pid": pid, "tid": tid,
                       "name": "thread_name", "args": {"name": track}})
        events.append({"ph": "M", "pid": pid, "tid": tid,
                       "name": "thread_sort_index",
                       "args": {"sort_index": tid}})
    return events


def write_chrome(path: str | Path, events: list[dict],
                 metadata: dict) -> Path:
    """Write one Chrome trace-event JSON file (every Perfetto export).

    Shared by the pipeline timeline, the event-trace conversion and the
    run-trace merge of :mod:`repro.obs.spans`.
    """
    path = Path(path)
    payload = {"traceEvents": events, "displayTimeUnit": "ms",
               "metadata": metadata}
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


class TimelineRecorder:
    """Ring-buffered pipeline span/instant recorder.

    Events are stored as compact tuples and only expanded to Chrome
    dicts at export time, so recording stays cheap.
    """

    def __init__(self, capacity: int = 262_144):
        if capacity < 1:
            raise ValueError("timeline capacity must be positive")
        self.capacity = capacity
        # ("X"|"i", track, name, ts, dur, args-or-None)
        self._events: deque[tuple] = deque(maxlen=capacity)
        self.emitted = 0

    def span(self, track: str, name: str, start: float, duration: float,
             **args) -> None:
        """A complete ("X") event: ``duration`` cycles on ``track``."""
        self._events.append(("X", track, name, start, duration,
                             args or None))
        self.emitted += 1

    def instant(self, track: str, name: str, ts: float, **args) -> None:
        """A thread-scoped instant ("i") event."""
        self._events.append(("i", track, name, ts, 0.0, args or None))
        self.emitted += 1

    def render(self, compiled, rows, times, line_size: int) -> None:
        """Record one finished run's events from its per-record rows.

        ``rows[i]`` is record ``i``'s outcome row (layout in
        :func:`repro.obs.trace.outcome_events`); ``times[i]`` its stage
        times ``(iag_t, lines_ready, fetch_start, fetch_done,
        fetch_stall, decode_start, decode_done, decode_idle,
        retire_start, retire_end, detect, used_sbb)``: the FTQ entry's
        allocation cycle, its prefetch completion (when the SBD runs),
        each stage's clocks, the resteer detect cycle (``None`` without
        one) and whether the SBB supplied the next fetch address.  Per
        record the events are the SBD head and tail spans, the IAG span,
        the BTB-miss and SBB-hit instants, the fetch, decode and retire
        spans, then the resteer instant.
        """
        span = self.span
        instant = self.instant
        starts = compiled.column("block_start")
        n_instrs = compiled.column("n_instr")
        branch_pcs = compiled.column("branch_pc")
        lengths = compiled.column("branch_len")
        n_lines = compiled.derived(line_size)[1]
        for index, (row, stage_times) in enumerate(zip(rows, times)):
            (btb_hit, _, _, sbb, head, tail, stage, cause,
             latency) = row
            (iag_t, lines_ready, fetch_start, fetch_done, fetch_stall,
             decode_start, decode_done, decode_idle, retire_start,
             retire_end, detect, used_sbb) = stage_times
            block_start = starts[index]
            branch_pc = branch_pcs[index]
            if head is not None:
                span("sbd.head", f"0x{block_start:x}", lines_ready, 1.0,
                     branches=len(head.branches),
                     decoded=len(head.decoded_pcs),
                     valid_paths=head.valid_paths,
                     discarded=head.discarded)
            if tail is not None:
                span("sbd.tail", f"0x{branch_pc + lengths[index]:x}",
                     lines_ready, 1.0, branches=len(tail.branches),
                     decoded=len(tail.decoded_pcs))
            name = f"0x{block_start:x}"
            span("iag", name, iag_t, 1.0, index=index)
            if not btb_hit:
                instant("iag", "btb_miss", iag_t, pc=branch_pc)
            if sbb is not None:
                instant("iag", f"sbb_hit:{sbb}", iag_t, pc=branch_pc,
                        used=used_sbb)
            span("fetch", name, fetch_start, fetch_done - fetch_start,
                 lines=n_lines[index], stall=fetch_stall)
            span("decode", name, decode_start, decode_done - decode_start,
                 instructions=n_instrs[index], idle=decode_idle)
            span("retire", name, retire_start, retire_end - retire_start)
            if stage is not None:
                cause = cause or "unattributed"
                instant("iag", f"resteer:{cause}", detect, stage=stage,
                        cause=cause, pc=branch_pc, latency=latency)

    @property
    def dropped(self) -> int:
        return self.emitted - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.emitted = 0

    # -- export ----------------------------------------------------------

    def chrome_events(self) -> list[dict]:
        """Metadata events plus all retained events, sorted by ``ts``.

        Sorting makes the export monotonic even where the simulator's
        per-track clocks interleave (the SBD track follows prefetch
        completion, which is not globally ordered).
        """
        out = metadata_events(PIPELINE_PID, PIPELINE_PROCESS, TRACKS)
        timed = []
        for phase, track, name, ts, dur, args in self._events:
            event = {"ph": phase, "pid": PIPELINE_PID,
                     "tid": TRACKS.get(track, 99), "name": name,
                     "ts": round(ts, 3)}
            if phase == "X":
                event["dur"] = round(dur, 3)
            else:
                event["s"] = "t"
            if args:
                event["args"] = dict(args)
            timed.append(event)
        timed.sort(key=lambda event: event["ts"])
        return out + timed

    def to_chrome(self, path: str | Path) -> Path:
        """Write a self-contained Chrome trace-event JSON file."""
        return write_chrome(path, self.chrome_events(), {
            "tool": "repro.obs.timeline",
            "time_unit": "1 trace us == 1 simulated cycle",
            "emitted": self.emitted,
            "dropped": self.dropped,
        })


# ----------------------------------------------------------------------
# EventTrace JSONL -> Chrome conversion
# ----------------------------------------------------------------------

def _event_name(event: dict) -> str:
    """A stable, low-cardinality display name for one trace event."""
    kind = event.get("kind")
    if kind == "btb":
        return "hit" if event.get("hit") else "miss"
    if kind == "sbb":
        return f"hit:{event['which']}" if event.get("hit") else "miss"
    if kind == "sbd":
        return str(event.get("side", "sbd"))
    if kind == "resteer":
        return str(event.get("cause", "unattributed"))
    return str(kind)


def chrome_from_trace_events(events: Iterable[dict]) -> list[dict]:
    """Convert EventTrace dicts into Chrome trace events.

    The event trace has no cycle timestamps, so the monotonic ``seq``
    number becomes the time axis (one event == one trace microsecond);
    what the view shows is event *ordering* and per-kind density, which
    is exactly what the ring buffer captures.  ``trace_header`` objects
    (from :meth:`repro.obs.trace.EventTrace.to_jsonl` dumps) are skipped.
    """
    tracks = dict(EVENT_TRACE_TRACKS)
    out = []
    timed = []
    for event in events:
        kind = event.get("kind")
        if kind == "trace_header":
            continue
        tid = tracks.setdefault(kind, len(tracks) + 1)
        args = {key: value for key, value in event.items()
                if key not in ("kind", "seq")}
        chrome = {"ph": "i", "pid": EVENT_TRACE_PID, "tid": tid,
                  "name": _event_name(event), "s": "t",
                  "ts": float(event.get("seq", len(timed)))}
        if args:
            chrome["args"] = args
        timed.append(chrome)
    timed.sort(key=lambda event: event["ts"])
    out.extend(metadata_events(EVENT_TRACE_PID, EVENT_TRACE_PROCESS,
                                tracks))
    out.extend(timed)
    return out


def chrome_from_jsonl(in_path: str | Path, out_path: str | Path) -> Path:
    """Convert an EventTrace JSONL dump into a Chrome trace JSON file.

    Warns with :class:`repro.obs.trace.DroppedEventsWarning` when the
    dump's ``trace_header`` records ``dropped > 0`` -- the converted
    timeline is then missing its oldest events, not complete.
    """
    import warnings

    from repro.obs.trace import DroppedEventsWarning

    in_path, out_path = Path(in_path), Path(out_path)
    events = []
    with open(in_path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    for event in events:
        if event.get("kind") == "trace_header" and event.get("dropped", 0):
            warnings.warn(
                f"{in_path}: trace header reports {event['dropped']} "
                f"dropped events; the converted timeline is truncated "
                f"(re-dump with a larger trace capacity)",
                DroppedEventsWarning, stacklevel=2)
    return write_chrome(out_path, chrome_from_trace_events(events), {
        "tool": "repro.obs.timeline",
        "source": str(in_path),
        "time_unit": "1 trace us == 1 trace sequence number"})
