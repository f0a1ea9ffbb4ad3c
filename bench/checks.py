"""Correctness checks that feed the benchmark's failed-cell count.

Every cell result the benchmark produces is checked: its metric snapshot
must satisfy every declared invariant, and where a second computation
of the same cell exists (an earlier repetition, a warm-store replay, an
oracle engine) its ``SimStats`` and snapshot must match exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager

from repro.frontend.stats import SimStats
from repro.harness.store import stats_to_jsonable
from repro.obs.invariants import check_snapshot

#: Snapshot scopes that exist only when instrumentation is attached
#: (event trace, attribution sink, object-path fallback gauge); they are
#: ignored when an instrumented run is compared with a plain one.
INSTRUMENTATION_SCOPES = ("trace.", "attribution.", "batch.")


def stats_digest(stats: list[SimStats]) -> str:
    """SHA-256 of the canonical JSON of every cell's ``SimStats``."""
    canonical = json.dumps([stats_to_jsonable(item) for item in stats],
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _stats_diff(stats: SimStats, reference: SimStats) -> list[str]:
    ours, theirs = stats_to_jsonable(stats), stats_to_jsonable(reference)
    return sorted(name for name in ours if ours[name] != theirs.get(name))


def _snapshot_diff(metrics: dict, reference: dict,
                   ignore: tuple[str, ...]) -> list[str]:
    keys = {key for key in set(metrics) | set(reference)
            if not key.startswith(ignore)}
    return sorted(key for key in keys
                  if metrics.get(key) != reference.get(key))


def cell_problems(stats: SimStats, metrics: dict | None,
                  reference: SimStats | None = None,
                  reference_metrics: dict | None = None,
                  ignore: tuple[str, ...] = ()) -> list[str]:
    """Everything wrong with one cell result; empty when it passes.

    ``reference``/``reference_metrics`` are another computation of the
    same cell, already checked; a result identical to it passes without
    re-running the invariants.  ``ignore`` lists snapshot key prefixes
    that only one side can have.
    """
    if metrics is None:
        return ["no metric snapshot"]
    if (reference is not None and stats == reference
            and metrics == reference_metrics):
        return []
    problems = [f"invariant {violation.invariant}: {violation.message}"
                for violation in check_snapshot(metrics)]
    if reference is not None:
        differing = _stats_diff(stats, reference)
        if differing:
            problems.append("SimStats differ in " + ", ".join(differing[:5]))
    if reference_metrics is not None:
        differing = _snapshot_diff(metrics, reference_metrics, ignore)
        if differing:
            problems.append("snapshot differs in " + ", ".join(differing[:5]))
    return problems


@contextmanager
def fastforward_disabled():
    """Set ``REPRO_FASTFORWARD=0`` for one call, then restore the env."""
    previous = os.environ.get("REPRO_FASTFORWARD")
    os.environ["REPRO_FASTFORWARD"] = "0"
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_FASTFORWARD"]
        else:
            os.environ["REPRO_FASTFORWARD"] = previous


class CellLedger:
    """Counts checked cell results and keeps the first few failures."""

    KEEP = 10

    def __init__(self):
        self.checked = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.checked += 1
        if problems:
            self.failed += 1
            if len(self.failures) < self.KEEP:
                self.failures.append(f"{label}: {'; '.join(problems)}")
