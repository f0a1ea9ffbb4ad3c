"""Live harness progress: throughput, ETA, straggler flagging.

The harness can run thousands of cells; this module is the line that
tells you where it is.  :class:`ProgressReporter` tracks completed
cells, derives throughput and an ETA from the observed rate, and is
**TTY-aware**: on an interactive stream it rewrites one status line in
place (``\\r``), in CI (or any non-TTY stream) it prints plain periodic
lines instead so logs stay readable.

Straggler detection: a completed cell whose wall time exceeds
``straggler_factor`` x the running median (with at least ``min_samples``
walls observed) is flagged -- a ``straggler`` record in the run ledger
plus a ``repro.progress`` log warning.  This live path covers the
individually timed cells of serial runs, where the reporter observes
every wall as it lands.  After every batch, serial or parallel, the
post-hoc pass (:func:`repro.obs.ledger.flag_stragglers`) judges one
wall per group from the ledger, which also covers kernel lanes that
share a wall.

Both the wall clock and the monotonic clock are injectable, so ETA and
straggler arithmetic are tested with synthetic clocks -- no sleeping.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from typing import Callable, TextIO

from repro.obs.ledger import (RunLedger, STRAGGLER_FACTOR,
                              STRAGGLER_MIN_SAMPLES)


def _format_eta(seconds: float) -> str:
    """``1h02m``/``3m20s``/``12s`` -- coarse on purpose."""
    seconds = max(0, int(round(seconds)))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class ProgressReporter:
    """Throughput/ETA reporting plus live straggler flagging.

    Parameters mirror the testability conventions of the obs layer:
    ``clock`` is a monotonic-seconds callable, ``stream`` the output
    text stream (TTY detection via ``stream.isatty()``), ``interval``
    the minimum seconds between emitted lines.  ``ledger`` (optional)
    receives ``straggler`` cell records and heartbeats.
    """

    def __init__(self, total: int, *,
                 stream: TextIO | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 interval: float = 2.0,
                 straggler_factor: float = STRAGGLER_FACTOR,
                 min_samples: int = STRAGGLER_MIN_SAMPLES,
                 ledger: RunLedger | None = None,
                 label: str = "cells"):
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.interval = interval
        self.straggler_factor = straggler_factor
        self.min_samples = min_samples
        self.ledger = ledger
        self.label = label
        self.completed = 0
        self.stragglers: list[str] = []
        self._walls: list[float] = []
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

    def update(self, n: int = 1, cell_id: str | None = None,
               wall_s: float | None = None) -> None:
        """Record ``n`` completed cells (and optionally one cell's wall).

        The wall feeds the running median; if the cell took more than
        ``straggler_factor`` x median it is flagged immediately.
        """
        self.completed += n
        if wall_s is not None and cell_id is not None:
            self._note_wall(cell_id, wall_s)
        self.maybe_emit()

    def _note_wall(self, cell_id: str, wall_s: float) -> None:
        if len(self._walls) >= self.min_samples:
            median = statistics.median(self._walls)
            if median > 0 and wall_s > self.straggler_factor * median:
                self.stragglers.append(cell_id)
                if self.ledger is not None:
                    self.ledger.cell(cell_id, "straggler",
                                     wall_s=round(wall_s, 6),
                                     median_s=round(median, 6),
                                     factor=self.straggler_factor)
                import logging
                logging.getLogger("repro.progress").warning(
                    "straggler cell %s: %.3fs vs median %.3fs (> %.1fx)",
                    cell_id, wall_s, median, self.straggler_factor)
        self._walls.append(wall_s)

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
        if self.stragglers:
            parts.append(f"{len(self.stragglers)} straggler"
                         + ("s" if len(self.stragglers) != 1 else ""))
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
