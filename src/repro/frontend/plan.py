"""The engine plan: which engine runs a cell, whether fast-forward may
engage, and why.

``FrontEndSimulator.run_compiled`` is the readable per-record oracle; the
lane kernel of :mod:`repro.frontend.batch` is the fast path.  Both keep
the outcome rows attribution and event traces are rendered from; only
the oracle drives the timeline recorder.  :func:`plan_engine` is the one
gate that picks between them, and
:func:`run_planned` the one "kernel if the plan allows it, else
``run_compiled``" step.  Runs that leave a fast path are counted in one
process-wide reason counter keyed by what was lost (``"kernel"`` or
``"fastforward"``) -- never in a metric gauge, so snapshots stay
identical across engines and with fast-forward on and off.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

from repro.workloads.compiled import batch_enabled, fastforward_enabled

logger = logging.getLogger(__name__)


class EnginePlan(NamedTuple):
    """One cell's engine, fast-forward eligibility and reasons."""

    engine: str                     # "batched" or "compiled"
    fastforward: bool               # fast-forward may engage
    kernel_reason: str | None       # why the lane kernel cannot run it
    fastforward_reason: str | None  # why fast-forward may not engage

    def ledger_fields(self, simulator) -> dict:
        """The run ledger's ``simulate`` fields for a run under this plan
        (``run_compiled`` is recorded as mode ``"object"``)."""
        return {"mode": "batched" if self.engine == "batched" else "object",
                "fallback_reason": self.kernel_reason,
                "fastforward": simulator.fastforward_summary}

    def outcome(self, simulator) -> dict:
        """The terminal ``done`` fields: :meth:`ledger_fields` minus the
        unset ones, plus ``result``."""
        fields = self.ledger_fields(simulator)
        return {"result": "simulated",
                **{key: value for key, value in fields.items()
                   if value is not None}}


def plan_engine(simulator) -> EnginePlan:
    """The plan for ``simulator``'s next run (pure: counts nothing).

    An attached timeline recorder takes per-stage timestamps only the
    oracle has, so it keeps the cell off the kernel and off
    fast-forward.  ``REPRO_BATCH=0`` keeps every cell off the kernel
    without a reason (it is a choice, not a fallback).  Fast-forward
    also refuses attribution and event traces, which need an outcome
    row for every record, comparator baselines, whose state the probe
    digest does not cover, and the divergence bisector's per-window
    state probe, which observes every window.
    """
    kernel_reason = ("timeline recorder attached"
                     if simulator.timeline is not None else None)
    intervals = simulator.intervals
    if not fastforward_enabled():
        fastforward_reason = "disabled by env"
    elif kernel_reason is not None:
        fastforward_reason = kernel_reason
    elif simulator.attribution is not None:
        fastforward_reason = "attribution attached"
    elif simulator.trace is not None:
        fastforward_reason = "event trace attached"
    elif simulator.bpu.comparator is not None:
        fastforward_reason = "comparator attached"
    elif intervals is not None and intervals.state_probe is not None:
        fastforward_reason = "state probe attached"
    else:
        fastforward_reason = None
    engine = ("batched" if kernel_reason is None and batch_enabled()
              else "compiled")
    return EnginePlan(engine, fastforward_reason is None, kernel_reason,
                      fastforward_reason)


def run_planned(simulator, compiled, warmup: int = 0):
    """Run one cell on the engine its plan picks; ``(stats, plan)``.

    A cell the kernel cannot replicate runs ``run_compiled`` instead,
    counted as a ``"kernel"`` fallback so the slowdown is never silent.
    """
    from repro.frontend.batch import run_compiled_batched

    plan = plan_engine(simulator)
    if plan.engine == "batched":
        return run_compiled_batched(simulator, compiled, warmup=warmup), plan
    if plan.kernel_reason is not None:
        note_reason("kernel", plan.kernel_reason)
    return simulator.run_compiled(compiled, warmup=warmup), plan


_reason_counts: dict[tuple[str, str], int] = {}


def note_reason(lost: str, reason: str) -> None:
    """Count one run that lost ``lost`` (``"kernel"`` or
    ``"fastforward"``) for ``reason``; log each pair once."""
    key = (lost, reason)
    count = _reason_counts.get(key, 0)
    _reason_counts[key] = count + 1
    if not count:
        logger.info("%s unavailable: %s", lost, reason)


def reason_counts(lost: str) -> dict[str, int]:
    """``{reason: count}`` of runs that lost ``lost`` in this process."""
    return {reason: count for (kind, reason), count
            in sorted(_reason_counts.items()) if kind == lost}


def reset_reasons() -> None:
    """Clear the counter (and re-arm the one-time log lines)."""
    _reason_counts.clear()
