"""Host-side section profiler: where does the wall-clock go?

The simulator's own metrics (:mod:`repro.obs.registry`) count *simulated*
events; this module times the *host* Python code that produces them --
the experiment runner, the persistent store, the shadow-decode table
misses -- so the run ledger can report where a cell's wall-clock is
actually spent.

Every timed section becomes one **span**, the only host-timing record:
``(name, start_ns, dur_ns, self_ns, cell, pid)`` in :data:`SPAN_FIELDS`
order.  Per-section totals are not stored; sum the spans of one name.

Design constraints mirror the rest of ``repro.obs``:

* **Near-zero cost when disabled.**  ``section(name)`` on a disabled
  profiler returns a shared no-op context manager; instrumented call
  sites pay one attribute check and an empty ``with`` block.  Hot-path
  call sites (the SBD) only open sections on decode-table *misses*,
  which are bounded by the number of distinct decode boundaries.
* **Nesting-aware.**  Sections stack; each span carries both its
  duration and its *self* time (duration minus child sections), so
  ``harness.simulate`` minus ``sbd.*`` is the engine's own share.
  Re-entering a section that is already on the stack records each
  invocation, so recursive rollup totals can exceed wall-clock; self
  time stays disjoint.
* **Process-local.**  The module-level :data:`PROFILER` is what the
  harness threads through.  It records only while enabled: the run
  ledger (:func:`repro.obs.ledger.start_run`) attaches it to the run's
  ``spans.jsonl``, and each pool worker attaches its own copy to the
  same file.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable

#: Field order of a recorded span tuple and the keys of a
#: ``spans.jsonl`` row.
SPAN_FIELDS = ("name", "start_ns", "dur_ns", "self_ns", "cell", "pid")


def span_row(span: tuple) -> dict:
    """One span tuple as its ``spans.jsonl`` row."""
    return dict(zip(SPAN_FIELDS, span))


class _NullSection:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullSection()


class _Timer:
    """One live section entry; created only when the profiler is on."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: "SectionProfiler", name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Timer":
        self._profiler._push(self._name)
        return self

    def __exit__(self, *exc) -> None:
        self._profiler._pop()


class SectionProfiler:
    """Nesting context-manager section timer over ``perf_counter_ns``.

    ``clock`` is injectable (a zero-argument callable returning integer
    nanoseconds) so the self-time arithmetic is testable without
    sleeping.

    ``attach(path)`` makes the profiler write its spans to ``path``:
    ``flush`` appends the spans popped since the last flush in one
    ``os.write`` on an ``O_APPEND`` descriptor, so concurrent writers
    (pool workers sharing one ``spans.jsonl``) never interleave
    mid-line, and a crashed process loses at most the spans popped
    since its last flush.
    """

    def __init__(self, enabled: bool = False,
                 clock: Callable[[], int] = time.perf_counter_ns):
        self.enabled = enabled
        self._clock = clock
        #: Recorded spans in pop order (tuples in SPAN_FIELDS order).
        self.spans: list[tuple] = []
        #: The span file this profiler flushes to (``None``: memory only).
        self.path: Path | None = None
        # Stack frames: [name, start_ns, child_ns_accumulated].
        self._stack: list[list] = []
        self._cell: str | None = None
        self._fd: int | None = None
        self._flushed = 0

    # -- the instrumentation surface ------------------------------------

    def section(self, name: str):
        """A context manager timing ``name`` (no-op when disabled)."""
        if not self.enabled:
            return _NULL
        return _Timer(self, name)

    def _push(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0])

    def _pop(self) -> None:
        name, start, child_ns = self._stack.pop()
        elapsed = self._clock() - start
        self.spans.append((name, start, elapsed, elapsed - child_ns,
                           self._cell, os.getpid()))
        if self._stack:
            self._stack[-1][2] += elapsed

    def set_cell(self, cell_id: str | None) -> None:
        """Stamp subsequently *popped* sections with ``cell_id``.

        The harness sets it around each cell's lifecycle, so
        ``store.get`` or ``harness.simulate`` spans attribute to the
        cell they served.
        """
        self._cell = cell_id

    # -- the span file ---------------------------------------------------

    def attach(self, path: str | os.PathLike) -> None:
        """Enable and write spans to ``path`` from now on.

        Drops every recorded span and the open-section stack first: a
        forked pool worker inherits the parent's, which the parent
        writes under its own pid, so each span is written exactly once.
        Call it with no section of this process open.
        """
        if self._fd is not None:
            os.close(self._fd)  # a forked worker's copy of the parent's
        self.spans.clear()
        self._stack.clear()
        self._cell = None
        self._fd = None
        self._flushed = 0
        self.path = Path(path)
        self.enabled = True

    def flush(self) -> int:
        """Append the spans popped since the last flush to :attr:`path`.

        Returns the number of spans written (0 when detached).
        """
        if self.path is None or self._flushed == len(self.spans):
            return 0
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        pending = self.spans[self._flushed:]
        payload = "".join(json.dumps(span_row(span), sort_keys=True) + "\n"
                          for span in pending)
        os.write(self._fd, payload.encode("utf-8"))
        self._flushed += len(pending)
        return len(pending)

    def detach(self) -> None:
        """Flush, close the span file and drop the recorded spans.

        After a run its spans live in its ``spans.jsonl``, not in
        memory.  ``enabled`` is left as it is.
        """
        self.flush()
        if self._fd is not None:
            os.close(self._fd)
        self.spans.clear()
        self._fd = None
        self._flushed = 0
        self.path = None


#: The process-wide profiler the harness and hot paths thread through.
PROFILER = SectionProfiler()
