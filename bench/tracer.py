"""Layer spans and structure-operation counters, installed from outside.

:meth:`Tracer.repetition` wraps public methods of the program's classes
at class level for the length of one traced repetition and restores
them afterwards; nothing inside ``src/`` knows it is being traced.

* A **span** wraps each call into a layer (program generation, trace
  compile, ``run_cells``, the lane kernel, ``run_compiled``, ...): one
  in-memory record with a name, start, end, parent span id and
  repetition id.
* An **op** wraps a structure operation (BTB lookup, cache fill, SBD
  decode, store read, ...).  Ops run millions of times, so each one only
  adds its call count and inclusive time to its enclosing span's
  per-op counters, plus the time of ops nested inside it.

:func:`breakdown` turns spans and op counters into self times.  A span's
self time is its duration minus the part of its interval its child spans
cover, minus the ops it called directly.  Every wrapped op call costs
the wrapper's own time; :func:`calibrate` measures that once on an empty
method (``inside`` the op's timed interval and ``outside`` it) and the
breakdown charges it to a separate tracing-overhead line, so layer self
times, op self times and the overhead add up to each root's wall time.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

clock = time.perf_counter_ns


@dataclass
class Span:
    """One layer call.  ``ops`` maps op name to ``[calls, inclusive_ns,
    nested_ns, nested_calls]`` for the ops whose nearest span is this."""

    id: int
    parent: int | None
    name: str
    rep: int
    start: int
    end: int = 0
    ops: dict[str, list[int]] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Calibration:
    """Per-call cost of the op wrapper, in ns, split at its timer reads."""

    inside: float
    outside: float

    @property
    def per_call(self) -> float:
        return self.inside + self.outside


def _layer_targets():
    """``(class, method, span name)`` for every wrapped layer call."""
    from repro.frontend.batch import BatchedFrontEndSimulator
    from repro.frontend.engine import FrontEndSimulator
    from repro.harness.runner import ExperimentRunner
    from repro.obs.attribution import AttributionAggregator
    from repro.workloads.cache import WorkloadCache
    from repro.workloads.compiled import CompiledTrace

    return (
        (WorkloadCache, "program", "workloads.program"),
        (WorkloadCache, "trace", "workloads.trace"),
        (WorkloadCache, "compiled", "workloads.compile"),
        (CompiledTrace, "period", "workloads.period"),
        (ExperimentRunner, "run_cells", "harness.run_cells"),
        (FrontEndSimulator, "__init__", "frontend.simulator_init"),
        (FrontEndSimulator, "attach_attribution", "obs.attribution_attach"),
        (FrontEndSimulator, "run_compiled", "frontend.run_compiled"),
        (FrontEndSimulator, "metrics_snapshot", "frontend.metrics_snapshot"),
        (BatchedFrontEndSimulator, "add_lane", "frontend.add_lane"),
        (BatchedFrontEndSimulator, "run", "frontend.kernel"),
        (AttributionAggregator, "to_jsonable", "obs.attribution_export"),
    )


def _op_targets():
    """``(class, method, op name)`` for every counted operation."""
    from repro.core.sbb import SBBStructure, ShadowBranchBuffer
    from repro.core.sbd import ShadowBranchDecoder
    from repro.frontend.btb import BranchTargetBuffer
    from repro.frontend.caches import CacheHierarchy, SetAssociativeCache
    from repro.frontend.predictor import ITTageLite, TageLite
    from repro.frontend.ras import ReturnAddressStack
    from repro.harness.runner import ExperimentRunner
    from repro.harness.store import ResultStore
    from repro.obs.attribution import AttributionAggregator
    from repro.obs.trace import EventTrace

    return (
        (BranchTargetBuffer, "lookup", "frontend.btb.lookup"),
        (BranchTargetBuffer, "insert", "frontend.btb.insert"),
        (CacheHierarchy, "access", "frontend.caches.access"),
        (SetAssociativeCache, "fill", "frontend.caches.fill"),
        (TageLite, "update", "frontend.tage.update"),
        (ITTageLite, "update", "frontend.ittage.update"),
        (ReturnAddressStack, "push", "frontend.ras.push"),
        (ReturnAddressStack, "pop", "frontend.ras.pop"),
        (ShadowBranchDecoder, "decode_head", "core.sbd.decode_head"),
        (ShadowBranchDecoder, "decode_tail", "core.sbd.decode_tail"),
        (ShadowBranchBuffer, "lookup", "core.sbb.lookup"),
        (SBBStructure, "insert", "core.sbb.insert"),
        (EventTrace, "emit", "obs.trace_emit"),
        (AttributionAggregator, "observe", "obs.attribution_observe"),
        (ResultStore, "key", "harness.store_key"),
        (ResultStore, "get", "harness.store_get"),
        (ResultStore, "get_metrics", "harness.store_get"),
        (ResultStore, "get_attribution", "harness.store_get"),
        (ResultStore, "put", "harness.store_put"),
        (ExperimentRunner, "metrics_for", "harness.metrics_for"),
    )


class Tracer:
    """Spans and op counters of the traced repetitions of one run.

    Single-threaded by design: the benchmark runs one process with no
    threads, so one stack of open spans and one of open ops suffice.
    """

    def __init__(self, calibration: Calibration | None = None):
        self.spans: list[Span] = []
        self.calibration = calibration or calibrate()
        #: ``(simulator, n_records)`` of every kernel lane added since
        #: the last :meth:`take_lanes`; read after the kernel finishes.
        self._lanes: list[tuple[object, int]] = []
        self._open: list[Span] = []
        self._op_frames: list[list[int]] = []
        self._rep = 0

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, self._rep, 0)
        self.spans.append(span)
        self._open.append(span)
        span.start = clock()
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order "
                               f"(innermost open is {popped.name!r})")

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    @contextmanager
    def repetition(self, rep: int):
        """One traced repetition: a root span with every wrapper installed."""
        self._rep = rep
        originals = []
        with self.span("bench.repetition"):
            try:
                for cls, attr, name in _layer_targets():
                    originals.append((cls, attr, cls.__dict__[attr]))
                    setattr(cls, attr, self._span_wrapper(
                        name, cls.__dict__[attr]))
                for cls, attr, name in _op_targets():
                    originals.append((cls, attr, cls.__dict__[attr]))
                    setattr(cls, attr, self._op_wrapper(
                        name, cls.__dict__[attr]))
                yield
            finally:
                for cls, attr, original in reversed(originals):
                    setattr(cls, attr, original)

    def take_lanes(self) -> list[tuple[object, int]]:
        lanes, self._lanes = self._lanes, []
        return lanes

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        lanes = self._lanes if name == "frontend.add_lane" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
                if lanes is not None:
                    # add_lane(self, simulator, compiled, warmup=0)
                    lanes.append((args[1], args[2].n_records))
        return wrapper

    def _op_wrapper(self, name: str, fn):
        frames = self._op_frames
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0, 0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                if frames:
                    outer = frames[-1]
                    outer[0] += elapsed
                    outer[1] += 1
                ops = open_spans[-1].ops
                stat = ops.get(name)
                if stat is None:
                    stat = ops[name] = [0, 0, 0, 0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
                stat[3] += frame[1]
        return wrapper


def calibrate(calls: int = 50_000, trials: int = 7) -> Calibration:
    """Measure the op wrapper's cost on an empty method (min of trials).

    The method takes two arguments, the typical arity of the wrapped
    operations, so the wrapper's argument forwarding is included.
    """
    tracer = Tracer(Calibration(0.0, 0.0))

    class Plain:
        def op(self, a, b):
            pass

    class Wrapped:
        op = tracer._op_wrapper("calibration", Plain.op)

    plain, wrapped = Plain(), Wrapped()
    loop = call = total = inside = float("inf")
    root = tracer.open("calibration")
    for _ in range(trials):
        start = clock()
        for _ in range(calls):
            pass
        loop = min(loop, clock() - start)
        start = clock()
        for _ in range(calls):
            plain.op(1, 2)
        call = min(call, clock() - start)
        root.ops.clear()
        start = clock()
        for _ in range(calls):
            wrapped.op(1, 2)
        total = min(total, clock() - start)
        inside = min(inside, root.ops["calibration"][1])
    tracer.close(root)
    bare_call = (call - loop) / calls
    inside_ns = max(0.0, inside / calls - bare_call)
    outside_ns = max(0.0, (total - call) / calls - inside_ns)
    return Calibration(inside_ns, outside_ns)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------

@dataclass
class Breakdown:
    """Self and inclusive times by layer and op, summed over spans (ns)."""

    span_self: dict[str, float] = field(default_factory=dict)
    span_inclusive: dict[str, float] = field(default_factory=dict)
    span_count: dict[str, int] = field(default_factory=dict)
    op_self: dict[str, float] = field(default_factory=dict)
    op_calls: dict[str, int] = field(default_factory=dict)
    overhead: float = 0.0
    #: Per root span id: ``(duration, sum of every part under it)``.
    roots: dict[int, tuple[int, float]] = field(default_factory=dict)


def _covered(parent: Span, children: list[Span]) -> int:
    """Length of the union of ``children`` intervals inside ``parent``."""
    covered = 0
    reach = parent.start
    for child in sorted(children, key=lambda span: span.start):
        start = max(child.start, reach)
        end = min(child.end, parent.end)
        if end > start:
            covered += end - start
            reach = end
    return covered


def breakdown(spans: list[Span], calibration: Calibration) -> Breakdown:
    """Self times of every span and op; see the module docstring.

    For each span: ``self = duration - covered by child spans - direct
    op calls' inclusive time - their outside-wrapper cost``.  For each
    op: ``self = inclusive - nested ops' inclusive - nested ops'
    outside cost - own inside cost``.  The subtracted wrapper costs go
    to ``overhead``.  Parts are summed per root so callers can check
    them against each root's duration.
    """
    inside, outside = calibration.inside, calibration.outside
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = Breakdown()

    def visit(span: Span) -> tuple[float, float]:
        """Return (parts, overhead) of the subtree rooted at ``span``."""
        kids = children.get(span.id, [])
        calls = incl = nested = nested_calls = 0
        subtree_parts = 0.0
        for name, (n, inclusive, nested_ns, nested_n) in span.ops.items():
            calls += n
            incl += inclusive
            nested += nested_ns
            nested_calls += nested_n
            op_self = inclusive - nested_ns - nested_n * outside - n * inside
            result.op_self[name] = result.op_self.get(name, 0.0) + op_self
            result.op_calls[name] = result.op_calls.get(name, 0) + n
            subtree_parts += op_self
        direct_calls = calls - nested_calls
        span_self = (span.duration - _covered(span, kids)
                     - (incl - nested) - direct_calls * outside)
        subtree_overhead = calls * (inside + outside)
        subtree_parts += span_self
        for kid in kids:
            kid_parts, kid_overhead = visit(kid)
            subtree_parts += kid_parts
            subtree_overhead += kid_overhead
        result.span_self[span.name] = (
            result.span_self.get(span.name, 0.0) + span_self)
        result.span_inclusive[span.name] = (
            result.span_inclusive.get(span.name, 0.0)
            + span.duration - subtree_overhead)
        result.span_count[span.name] = result.span_count.get(span.name, 0) + 1
        return subtree_parts, subtree_overhead

    for span in spans:
        if span.parent is None:
            subtree_parts, subtree_overhead = visit(span)
            result.overhead += subtree_overhead
            result.roots[span.id] = (span.duration,
                                     subtree_parts + subtree_overhead)
    return result


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------

def to_jsonable(tracer: Tracer) -> dict:
    """Spans and per-span op counters as plain JSON."""
    return {
        "clock": "perf_counter_ns",
        "calibration_ns": {"inside": tracer.calibration.inside,
                           "outside": tracer.calibration.outside},
        "spans": [{"id": span.id, "parent": span.parent, "name": span.name,
                   "rep": span.rep, "start_ns": span.start,
                   "end_ns": span.end,
                   "ops": {name: dict(zip(("calls", "inclusive_ns",
                                           "nested_ns", "nested_calls"),
                                          stat))
                           for name, stat in span.ops.items()}}
                  for span in tracer.spans],
    }


def chrome_trace(tracer: Tracer) -> dict:
    """Chrome trace-event JSON (loads in Perfetto / chrome://tracing).

    One complete (``"X"``) event per span on a single track; a span's op
    counters ride in its ``args``.
    """
    origin = min((span.start for span in tracer.spans), default=0)
    events = [{"name": span.name, "ph": "X", "pid": 1, "tid": 1,
               "ts": (span.start - origin) / 1000.0,
               "dur": span.duration / 1000.0,
               "args": {"id": span.id, "parent": span.parent,
                        "rep": span.rep,
                        **{f"{name}.calls": stat[0]
                           for name, stat in span.ops.items()}}}
              for span in tracer.spans]
    events.append({"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": "bench"}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
