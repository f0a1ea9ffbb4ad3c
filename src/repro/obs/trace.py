"""Opt-in structured event trace.

A bounded ring buffer of event dicts.  Neither engine emits while it
runs: with a trace or attribution attached, each appends one outcome
row per record (:func:`outcome_events` documents the layout), and the
run's events are rendered from the rows once it ends, so an unobserved
run pays one ``None`` check per record.  Each event records the trace
sequence number, the record index of the block it belongs to, an event
kind, and kind-specific fields:

========== ==========================================================
kind       fields
========== ==========================================================
``btb``    ``pc``, ``hit``, ``branch_kind``, ``resident`` (branch
           line L1I-resident at lookup -- the Figure 1/15 gate)
``sbb``    ``pc``, ``hit``, ``which`` (``"u"``/``"r"``/``None``)
``comparator`` ``pc``, ``hit`` (Section 7.1 baseline probe on a BTB
           miss; emitted only when a comparator design is enabled)
``sbd``    ``side`` (``"head"``/``"tail"``), ``pc``, ``branches``,
           ``discarded``, ``valid_paths`` (head only)
``resteer````pc``, ``stage`` (``"decode"``/``"exec"``), ``cause``,
           ``latency`` (cycles between IAG allocation and restart)
========== ==========================================================

A record's events come in that order: btb, comparator, sbb, sbd head,
sbd tail, resteer.  The buffer keeps the most recent ``capacity``
events; ``emitted`` counts every emission so ``dropped`` makes
truncation explicit in dumps.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Callable, Iterator

from repro.workloads.compiled import KIND_BY_CODE


class DroppedEventsWarning(UserWarning):
    """A trace source lost events before a reader could consume them.

    Raised (as a warning) by readers of ring-buffered dumps whose header
    records ``dropped > 0``: downstream rollups built from such a stream
    silently under-count unless the loss is surfaced.
    """


class EventTrace:
    """Ring-buffered JSONL event sink."""

    def __init__(self, capacity: int = 65_536):
        if capacity < 1:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self._events: deque[dict] = deque(maxlen=capacity)
        self.emitted = 0
        #: Record index stamped on subsequent emissions (:meth:`render`
        #: sets it per event).
        self.record_index: int | None = None
        #: Live observers called with every event *before* ring
        #: truncation -- a sink sees the complete stream even when the
        #: ring drops, so aggregations built on sinks stay exact.
        self._sinks: list[Callable[[dict], None]] = []

    def add_sink(self, sink: Callable[[dict], None]) -> None:
        """Register a live observer for every subsequent emission."""
        self._sinks.append(sink)

    def emit(self, kind: str, **fields) -> None:
        event = {"seq": self.emitted, "kind": kind}
        if self.record_index is not None:
            event["record"] = self.record_index
        event.update(fields)
        self._events.append(event)
        self.emitted += 1
        for sink in self._sinks:
            sink(event)

    def render(self, events) -> None:
        """Emit :func:`outcome_events`' ``(record, kind, values)`` events
        in order, each stamped with its record."""
        for record, kind, values in events:
            self.record_index = record
            self.emit(kind, **dict(zip(EVENT_FIELDS[kind], values)))

    @property
    def dropped(self) -> int:
        return self.emitted - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[dict]:
        return iter(self._events)

    def events(self, kind: str | None = None) -> list[dict]:
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event["kind"] == kind]

    def clear(self) -> None:
        self._events.clear()
        self.emitted = 0
        # Reset the record stamp too: a cleared trace reused on another
        # simulator must not stamp its first events with the previous
        # run's final record index.
        self.record_index = None

    def to_jsonl(self, path: str | Path) -> Path:
        """Write the retained events, one JSON object per line.

        A leading header object records capacity/emitted/dropped so a
        truncated dump is self-describing.
        """
        path = Path(path)
        with open(path, "w", encoding="utf-8") as handle:
            header = {"kind": "trace_header", "capacity": self.capacity,
                      "emitted": self.emitted, "dropped": self.dropped}
            handle.write(json.dumps(header) + "\n")
            for event in self._events:
                handle.write(json.dumps(event) + "\n")
        return path


#: Each event kind's fields, in emission order.
EVENT_FIELDS = {
    "btb": ("pc", "hit", "branch_kind", "resident"),
    "comparator": ("pc", "hit"),
    "sbb": ("pc", "hit", "which"),
    "sbd": ("side", "pc", "branches", "discarded", "valid_paths"),
    "resteer": ("pc", "stage", "cause", "latency"),
}


def outcome_events(compiled, rows, comparator: bool, skia: bool):
    """The events of one run's outcome rows, as ``(record, kind, values)``
    with ``values`` in :data:`EVENT_FIELDS` order (a tail ``sbd`` event
    stops before ``valid_paths``).

    ``rows[i]`` is record ``i``'s outcome, a tuple ``(btb_hit, resident,
    comparator_hit, sbb, head, tail, stage, cause, latency)``: the BTB
    hit and the branch line's L1-I residency at lookup, the comparator
    hit, the SBB half that hit (``None`` on a miss), the shared SBD
    results of the head and the mid-line tail decode (``None`` when that
    decode did not run), and the resteer stage, cause and latency
    (``None`` without a resteer).  ``comparator``/``skia`` say whether
    the run probed a comparator or the SBB on BTB misses.
    """
    branch_pcs = compiled.column("branch_pc")
    kinds = compiled.column("kind")
    starts = compiled.column("block_start")
    lengths = compiled.column("branch_len")
    for index, (btb_hit, resident, comparator_hit, sbb, head, tail, stage,
                cause, latency) in enumerate(rows):
        pc = branch_pcs[index]
        yield index, "btb", (pc, btb_hit, KIND_BY_CODE[kinds[index]].value,
                             resident)
        if not btb_hit:
            if comparator:
                yield index, "comparator", (pc, comparator_hit)
            if skia and not comparator_hit:
                yield index, "sbb", (pc, sbb is not None, sbb)
        if head is not None:
            yield index, "sbd", ("head", starts[index], len(head.branches),
                                 head.discarded, head.valid_paths)
        if tail is not None:
            yield index, "sbd", ("tail", pc + lengths[index],
                                 len(tail.branches), False)
        if stage is not None:
            yield index, "resteer", (pc, stage, cause or "unattributed",
                                     latency)
