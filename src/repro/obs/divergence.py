"""Cross-engine / cross-config divergence bisection.

The stack has two engines sworn to bit-identity (the ``run_compiled``
oracle and the batched lane kernel).  When they disagree -- or when two
configs are *expected* to disagree and you want to know where -- a
whole-run stats mismatch carries zero localization.  The bisector here
turns that into an exact coordinate:

1. **Window pass** -- run both sides over the same trace with an
   :class:`~repro.obs.intervals.IntervalCollector` cutting windows at
   identical record indices, each boundary also sampling a rolling
   BTB / SBB / RAS / L1-I state digest (:func:`state_digest`).
   Compare per-window digests (counter delta row + state hash) in
   lockstep and stop at the first mismatch.
2. **Oracle pass** -- re-run just the divergent window's prefix with
   per-record windows (``interval_size=1``), each side on its *own*
   engine, to pin the first divergent record, plus an oracle
   replay with a full event trace to recover the events of that record
   and a microarchitectural state diff at the point of divergence.

Identical sides produce ``DivergenceReport.identical == True``.  The
window pass costs two plain runs; the oracle pass re-simulates only the
prefix up to the divergent window's end.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import weakref
from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.digests import state_digest  # noqa: F401  (re-export)
from repro.obs.intervals import IntervalCollector
from repro.obs.registry import diff_snapshots
from repro.obs.trace import EventTrace

ENGINES = ("compiled", "batched")


@dataclass
class WindowDigest:
    """One window's comparison unit: counter deltas + state hash."""

    index: int
    end: int
    row_hash: str
    state_hash: str

    @staticmethod
    def row_fingerprint(row: dict) -> str:
        text = json.dumps(row, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class DivergenceReport:
    """Where two sides first disagree, and how."""

    a_label: str
    b_label: str
    windows_compared: int
    identical: bool
    window: int | None = None
    window_start: int | None = None
    window_end: int | None = None
    #: Per-window counter differences ``{name: (a, b)}`` at the first
    #: mismatching window (empty when only the state hash differed).
    window_counters: dict = field(default_factory=dict)
    #: First record index whose per-record delta row differs.
    record_index: int | None = None
    #: Counter differences of that single record, ``{name: (a, b)}``.
    record_counters: dict = field(default_factory=dict)
    #: ``diff_snapshots`` of the two sides' metric snapshots after
    #: replaying the divergent prefix (microarchitectural state diff).
    state_diff: dict = field(default_factory=dict)
    #: Oracle events of the divergent record, per side.
    events_a: list = field(default_factory=list)
    events_b: list = field(default_factory=list)

    def render(self) -> str:
        lines = [f"divergence bisect: {self.a_label} vs {self.b_label}"]
        if self.identical:
            lines.append(f"identical over {self.windows_compared} windows")
            return "\n".join(lines) + "\n"
        lines.append(
            f"first divergent window: {self.window} "
            f"(records [{self.window_start}, {self.window_end}))")
        if self.record_index is not None:
            lines.append(f"first divergent record: {self.record_index}")
        for title, diff in (("window counters", self.window_counters),
                            ("record counters", self.record_counters)):
            if diff:
                lines.append(f"{title}:")
                for name in sorted(diff):
                    a_val, b_val = diff[name]
                    lines.append(f"  {name}: {a_val} vs {b_val}")
        if self.state_diff:
            lines.append("state diff (metric snapshot, a vs b):")
            for name in sorted(self.state_diff):
                a_val, b_val = self.state_diff[name]
                lines.append(f"  {name}: {a_val} vs {b_val}")
        for label, events in ((self.a_label, self.events_a),
                              (self.b_label, self.events_b)):
            if events:
                lines.append(f"oracle events of record {self.record_index} "
                             f"({label}):")
                for event in events:
                    lines.append(f"  {event}")
        return "\n".join(lines) + "\n"

    def to_jsonable(self) -> dict:
        return dataclasses.asdict(self)


def _run_side(program, compiled, config, engine: str, warmup: int,
              seed: int, window: int, with_probe: bool = True):
    """One full run of ``engine`` with a window collector attached."""
    from repro.frontend.batch import run_compiled_batched
    from repro.frontend.engine import FrontEndSimulator

    # The simulator owns the collector we attach below; zero the config
    # knob so init does not attach a probe-less one first.
    config = dataclasses.replace(config, interval_size=0)
    simulator = FrontEndSimulator(program, config, seed=seed)
    # Weak, like the engine's records gauge: a probe holding its
    # simulator would close simulator -> collector -> probe -> simulator.
    probed = weakref.ref(simulator)
    collector = IntervalCollector(
        window,
        state_probe=(lambda: state_digest(probed())) if with_probe
        else None)
    simulator.attach_intervals(collector)
    if engine == "compiled":
        simulator.run_compiled(compiled, warmup=warmup)
    elif engine == "batched":
        run_compiled_batched(simulator, compiled, warmup=warmup)
    else:
        raise ValueError(f"unknown engine {engine!r}; one of {ENGINES}")
    return simulator, collector


def _oracle_events(program, records, config, warmup: int, seed: int,
                   record_index: int) -> list[dict]:
    """Oracle replay of ``records[:record_index + 1]`` keeping every
    event of the divergent record."""
    from repro.frontend.engine import FrontEndSimulator

    config = dataclasses.replace(config, interval_size=0)
    simulator = FrontEndSimulator(program, config, seed=seed)
    trace = EventTrace(capacity=8)  # a record emits at most six events
    simulator.attach_trace(trace)
    simulator.run(records[:record_index + 1], warmup=warmup)
    return [event for event in trace if event["record"] == record_index]


def bisect_divergence(program, records: Sequence, config_a, config_b=None,
                      *, engine_a: str = "compiled", engine_b: str = "batched",
                      warmup: int = 0, window: int = 1000, seed: int = 0,
                      compiled=None, oracle_events: bool = True,
                      ) -> DivergenceReport:
    """Localize the first divergence between two (engine, config) sides.

    ``config_b`` defaults to ``config_a`` (pure engine-vs-engine
    comparison).  Returns a :class:`DivergenceReport`; when the sides
    agree window-for-window (rows *and* state hashes) the report's
    ``identical`` flag is set and every coordinate field is ``None``.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    if config_b is None:
        config_b = config_a
    from repro.workloads.compiled import CompiledTrace

    records = list(records)
    if compiled is None:
        compiled = CompiledTrace.from_records(records)

    a_label = f"{engine_a}/{_config_label(config_a)}"
    b_label = f"{engine_b}/{_config_label(config_b)}"

    # State hashes only compare meaningfully when both sides run the
    # same configuration (engine-vs-engine mode): different configs
    # have structurally different state from record zero, which would
    # pin every cross-config bisection to window 0.  Counter rows are
    # the divergence signal there instead.
    compare_state = config_a == config_b

    # Window pass: both sides fully, compared boundary by boundary.
    _, coll_a = _run_side(program, compiled, config_a, engine_a, warmup,
                          seed, window, with_probe=compare_state)
    _, coll_b = _run_side(program, compiled, config_b, engine_b, warmup,
                          seed, window, with_probe=compare_state)

    n_windows = min(coll_a.windows, coll_b.windows)
    divergent = None
    for index in range(n_windows):
        if (coll_a.rows[index] != coll_b.rows[index]
                or coll_a.ends[index] != coll_b.ends[index]
                or (compare_state and coll_a.state_marks[index]
                    != coll_b.state_marks[index])):
            divergent = index
            break
    if divergent is None and coll_a.windows != coll_b.windows:
        divergent = n_windows  # one side has extra windows

    if divergent is None:
        return DivergenceReport(a_label=a_label, b_label=b_label,
                                windows_compared=n_windows, identical=True)

    ends = coll_a.ends if divergent < coll_a.windows else coll_b.ends
    window_end = ends[divergent]
    window_start = 0 if divergent == 0 else ends[divergent - 1]
    window_counters = _row_diff(
        coll_a.rows[divergent] if divergent < coll_a.windows else {},
        coll_b.rows[divergent] if divergent < coll_b.windows else {})

    # Oracle pass: per-record windows over the divergent prefix, each
    # side on its own engine, to pin the first divergent record.  In
    # engine-vs-engine mode the per-record state hashes localize even a
    # state-only divergence (counters agreeing, structures drifting).
    prefix = CompiledTrace.from_records(records[:window_end])
    sim_a, fine_a = _run_side(program, prefix, config_a, engine_a, warmup,
                              seed, 1, with_probe=compare_state)
    sim_b, fine_b = _run_side(program, prefix, config_b, engine_b, warmup,
                              seed, 1, with_probe=compare_state)
    record_index = None
    record_counters: dict = {}
    for index in range(min(fine_a.windows, fine_b.windows)):
        if (fine_a.rows[index] != fine_b.rows[index]
                or (compare_state and fine_a.state_marks[index]
                    != fine_b.state_marks[index])):
            record_index = index
            record_counters = _row_diff(fine_a.rows[index],
                                        fine_b.rows[index])
            break

    state_diff = diff_snapshots(sim_a.metrics_snapshot(),
                                sim_b.metrics_snapshot())

    events_a: list = []
    events_b: list = []
    if oracle_events and record_index is not None:
        events_a = _oracle_events(program, records, config_a, warmup, seed,
                                  record_index)
        events_b = _oracle_events(program, records, config_b, warmup, seed,
                                  record_index)

    return DivergenceReport(
        a_label=a_label, b_label=b_label, windows_compared=divergent + 1,
        identical=False, window=divergent, window_start=window_start,
        window_end=window_end, window_counters=window_counters,
        record_index=record_index, record_counters=record_counters,
        state_diff=state_diff, events_a=events_a, events_b=events_b)


def _row_diff(row_a: dict, row_b: dict) -> dict:
    """Differing keys of two delta rows, ``{name: (a, b)}``."""
    out = {}
    for name in sorted(set(row_a) | set(row_b)):
        a_val = row_a.get(name, 0)
        b_val = row_b.get(name, 0)
        if a_val != b_val:
            out[name] = (a_val, b_val)
    return out


def _config_label(config) -> str:
    """Compact human label for a config side."""
    if config.comparator is not None:
        return config.comparator
    skia = config.skia
    if skia.enabled:
        heads = getattr(skia, "decode_heads", False)
        tails = getattr(skia, "decode_tails", False)
        return {(True, True): "skia", (True, False): "head",
                (False, True): "tail"}.get((heads, tails), "skia")
    return "base"


def window_digests(collector: IntervalCollector) -> list[WindowDigest]:
    """The comparison units of a window pass, hashed for display."""
    digests = []
    for index in range(collector.windows):
        state = (collector.state_marks[index]
                 if index < len(collector.state_marks) else "")
        digests.append(WindowDigest(
            index=index, end=collector.ends[index],
            row_hash=WindowDigest.row_fingerprint(collector.rows[index]),
            state_hash=str(state)))
    return digests
