"""Live harness progress: throughput and ETA.

The harness can run thousands of cells; this module is the line that
tells you where it is.  :class:`ProgressReporter` tracks completed
cells, derives throughput and an ETA from the observed rate, and is
**TTY-aware**: on an interactive stream it rewrites one status line in
place (``\\r``), in CI (or any non-TTY stream) it prints plain periodic
lines instead so logs stay readable.

Stragglers are judged once, when a ledgered run ends
(:func:`repro.obs.ledger.flag_stragglers` over the whole manifest), not
here.

The clock is injectable, so ETA arithmetic is tested with a synthetic
clock -- no sleeping.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, TextIO

from repro.obs.ledger import RunLedger


def _format_eta(seconds: float) -> str:
    """``1h02m``/``3m20s``/``12s`` -- coarse on purpose."""
    seconds = max(0, int(round(seconds)))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class ProgressReporter:
    """Throughput/ETA reporting.

    Parameters mirror the testability conventions of the obs layer:
    ``clock`` is a monotonic-seconds callable, ``stream`` the output
    text stream (TTY detection via ``stream.isatty()``), ``interval``
    the minimum seconds between emitted lines.  ``ledger`` (optional)
    receives heartbeats.
    """

    def __init__(self, total: int, *,
                 stream: TextIO | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 interval: float = 2.0,
                 ledger: RunLedger | None = None,
                 label: str = "cells"):
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.interval = interval
        self.ledger = ledger
        self.label = label
        self.completed = 0
        self._started = clock()
        self._last_emit: float | None = None
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._line_open = False

    # -- bookkeeping -----------------------------------------------------

    @property
    def elapsed(self) -> float:
        return self.clock() - self._started

    @property
    def rate(self) -> float:
        """Completed cells per second (0 until the first completion)."""
        elapsed = self.elapsed
        if elapsed <= 0 or self.completed == 0:
            return 0.0
        return self.completed / elapsed

    @property
    def eta_seconds(self) -> float | None:
        """Seconds to completion at the observed rate; None until known."""
        rate = self.rate
        if rate <= 0:
            return None
        return (self.total - self.completed) / rate

    def update(self, n: int = 1) -> None:
        """Record ``n`` completed cells."""
        self.completed += n
        self.maybe_emit()

    def heartbeat(self, **fields) -> None:
        """Forward a liveness signal to the ledger (rate-limited there)."""
        if self.ledger is not None:
            self.ledger.heartbeat(completed=self.completed,
                                  total=self.total, **fields)

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        parts = [f"{self.completed}/{self.total} {self.label}"]
        rate = self.rate
        if rate > 0:
            parts.append(f"{rate:.1f}/s")
            eta = self.eta_seconds
            if eta is not None:
                parts.append(f"ETA {_format_eta(eta)}")
        return "  ".join(parts)

    def maybe_emit(self, force: bool = False) -> None:
        """Emit a status line if ``interval`` has passed (or forced)."""
        now = self.clock()
        if (not force and self._last_emit is not None
                and now - self._last_emit < self.interval):
            return
        self._last_emit = now
        line = self.render()
        if self._tty:
            self.stream.write("\r\x1b[K" + line)
            self._line_open = True
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def finish(self) -> None:
        """Final status line; closes the in-place TTY line."""
        self.maybe_emit(force=True)
        if self._tty and self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False


def progress_enabled(stream: TextIO | None = None) -> bool:
    """Progress lines are suppressed with ``REPRO_NO_PROGRESS=1``."""
    if os.environ.get("REPRO_NO_PROGRESS", "").lower() in (
            "1", "true", "yes", "on"):
        return False
    return True
