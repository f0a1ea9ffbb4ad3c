"""Steady-state cycle detection and exact fast-forward replay.

The harness's synthetic traces are often *periodic*: after a preamble,
the column stream repeats exactly every ``period`` records.  The
simulator is deterministic, so once its microarchitectural state at
trace phase ``φ`` repeats -- same structures, same relative clocks --
every subsequent period produces byte-identical counter deltas and a
uniform clock shift.  This module detects that fixed point and replays
the remaining whole periods analytically:

1. **Plan** -- :func:`plan_compiled` asks :func:`fastforward_reason`
   whether the run may skip (observers that need a row for every
   record, comparators and state probes keep it stepping) and reads
   :meth:`CompiledTrace.period`; ineligible runs fall back to plain
   stepping with the reason counted by :func:`note_reason`.
2. **Probe** -- the engine calls :meth:`FastForward.on_probe` between
   records at indices ``r0 + k*quantum`` (``r0`` past both warm-up and
   the preamble; ``quantum`` a common multiple of the period and the
   interval size so every probe lands at the same trace phase *and*
   the same interval offset).  Each probe hashes the behavioural state
   relative to its own clock base (:func:`repro.obs.digests.probe_digest`
   over every structure's ``state(base)``).
3. **Skip** -- the first repeated digest at indices ``A < B`` proves
   ``state(B) == state(A)`` shifted by ``Δ = base_B - base_A``.  The
   remaining ``N = (n - B) // (B - A)`` whole strides are applied in
   O(structures): clocks and future-dated timestamps shift by ``N*Δ``,
   every counter ``c`` named in a structure's ``COUNTERS`` becomes
   ``c + N*(c_B - c_A)``, interval rows are
   synthesised by replicating the ``(A, B]`` window deltas, and the
   engine resumes at ``B + N*(B - A)`` for the epilogue.

Exactness notes (why the skip is *byte*-identical, not approximate):

* All clocks are multiples of ``1 / backend_effective_width``, so the
  per-period shift ``Δ`` is an exact dyadic float and ``N*Δ`` equals
  ``Δ`` added ``N`` times.
* Timestamps at or before the probe's clock base are behaviourally one
  class (consumers ``max()`` them against a later *now* or drain them
  unread), so only future-dated values are shifted.
* The resteer-latency histogram's bucket counts and total scale
  (skipped periods repeat the latency multiset of ``(A, B]``); its
  min/max are already fixed points of that multiset and stay put.

Disable with ``REPRO_FASTFORWARD=0``.  Each run's outcome is published
on the simulator's ``fastforward_summary`` attribute, and each declined
run is counted in one process-wide reason counter (:func:`reason_counts`)
-- never as metric gauges, which would break fast-forward on/off
snapshot identity.
"""

from __future__ import annotations

import logging
import math
import os
from collections import deque

from repro.frontend.caches import shifted_time
from repro.obs.digests import probe_digest

logger = logging.getLogger(__name__)

#: Stop probing after this many unmatched digests: a state orbit that
#: has not closed within 64 quanta is treated as non-converging.
MAX_PROBES = 64


_reason_counts: dict[str, int] = {}


def note_reason(reason: str) -> None:
    """Count one run that could not fast-forward for ``reason``; log
    each reason once."""
    count = _reason_counts.get(reason, 0)
    _reason_counts[reason] = count + 1
    if not count:
        logger.info("fastforward unavailable: %s", reason)


def reason_counts() -> dict[str, int]:
    """``{reason: count}`` of runs that could not fast-forward in this
    process."""
    return dict(sorted(_reason_counts.items()))


def reset_reasons() -> None:
    """Clear the counter (and re-arm the one-time log lines)."""
    _reason_counts.clear()


def fastforward_reason(simulator) -> str | None:
    """Why ``simulator``'s next run may not fast-forward, or ``None``
    (pure: counts nothing).

    ``REPRO_FASTFORWARD=0`` keeps every run stepping all records.
    Observers rendered from per-record rows (a timeline recorder,
    attribution, an event trace) need a row for every record;
    comparator state is not covered by the probe digest; the divergence
    bisector's per-window state probe observes every window.
    """
    intervals = simulator.intervals
    if os.environ.get("REPRO_FASTFORWARD", "").lower() in (
            "0", "false", "no", "off"):
        return "disabled by env"
    if simulator.timeline is not None:
        return "timeline recorder attached"
    if simulator.attribution is not None:
        return "attribution attached"
    if simulator.trace is not None:
        return "event trace attached"
    if simulator.bpu.comparator is not None:
        return "comparator attached"
    if intervals is not None and intervals.state_probe is not None:
        return "state probe attached"
    return None


def _declined(simulator, reason: str) -> None:
    note_reason(reason)
    simulator.fastforward_summary = {"engaged": False, "reason": reason}


def plan_compiled(simulator, compiled, warmup: int) -> "FastForward | None":
    """A :class:`FastForward` for one run over ``compiled``, or None."""
    reason = fastforward_reason(simulator)
    if reason is not None:
        _declined(simulator, reason)
        return None
    detected = compiled.period()
    if detected is None:
        _declined(simulator, "no detected period")
        return None
    period, preamble = detected
    controller = FastForward(simulator, compiled.n_records, warmup, period,
                             preamble)
    if not controller.active:
        _declined(simulator, "trace too short for the probe quantum")
        return None
    return controller


class ProbeState:
    """Mutable carrier of one engine's scheduler locals across a probe.

    Attribute names match the batched lane kernel's (``_Lane`` passes
    itself directly); ``run_compiled`` packs its locals into one of
    these, lets :meth:`FastForward.on_probe` translate it, and unpacks.
    """

    __slots__ = ("iag_free", "fetch_free", "decode_free", "retire_free",
                 "ftq_inflight", "prev_taken", "counted_instructions",
                 "counted_blocks", "next_boundary")

    def __init__(self, iag_free, fetch_free, decode_free, retire_free,
                 ftq_inflight, prev_taken, counted_instructions,
                 counted_blocks, next_boundary):
        self.iag_free = iag_free
        self.fetch_free = fetch_free
        self.decode_free = decode_free
        self.retire_free = retire_free
        self.ftq_inflight = ftq_inflight
        self.prev_taken = prev_taken
        self.counted_instructions = counted_instructions
        self.counted_blocks = counted_blocks
        self.next_boundary = next_boundary


class _Probe:
    """Everything :meth:`FastForward.on_probe` needs to replay a stride."""

    __slots__ = ("index", "base", "counters", "counted", "stats",
                 "hist", "interval_len", "interval_prev")

    def __init__(self, index, base, counters, counted, stats, hist,
                 interval_len, interval_prev):
        self.index = index
        self.base = base
        self.counters = counters
        self.counted = counted
        self.stats = stats
        self.hist = hist
        self.interval_len = interval_len
        self.interval_prev = interval_prev


class FastForward:
    """Per-run probe/skip controller shared by both engines.

    The engine steps records in segments bounded by :attr:`next_probe`
    and calls :meth:`on_probe` between records, passing a *state
    carrier* exposing the scheduler locals by their lane-kernel names
    (``iag_free``/``fetch_free``/``decode_free``/``retire_free``,
    ``ftq_inflight``, ``prev_taken``, ``counted_instructions``,
    ``counted_blocks``, ``next_boundary``).  ``on_probe`` returns the
    record index to resume from -- the same index, or past the skipped
    strides.  At most one skip happens per run; afterwards
    :attr:`active` is False and the engine steps the epilogue plainly.
    """

    def __init__(self, simulator, n_records: int, warmup: int,
                 period: int, preamble: int):
        self.sim = simulator
        self.n_records = n_records
        self.period = period
        self.preamble = preamble
        intervals = simulator.intervals
        interval_size = intervals.interval_size if intervals is not None \
            else 0
        quantum = period if interval_size <= 0 else \
            math.lcm(period, interval_size)
        self.quantum = quantum
        first = max(warmup + 1, preamble, 1)
        self.next_probe = first
        self.active = first + 2 * quantum <= n_records
        self.probes = 0
        self.matched = False
        self.skipped_records = 0
        self.skipped_strides = 0
        self.stride = 0
        self._seen: dict[bytes, _Probe] = {}
        #: Every counter a skip scales: the structures' ``COUNTERS``.
        self._sites = [(structure, name) for structure
                       in simulator.structures().values()
                       for name in structure.COUNTERS]

    # ------------------------------------------------------------------

    def on_probe(self, index: int, state) -> int:
        """Hash state between records; skip when a digest repeats."""
        sim = self.sim
        base = state.iag_free
        digest = probe_digest(sim, state, base)
        self.probes += 1
        prior = self._seen.get(digest)
        if prior is None:
            self._seen[digest] = self._snapshot(index, base, state)
            self.next_probe = index + self.quantum
            if (self.probes >= MAX_PROBES
                    or self.next_probe + self.quantum > self.n_records):
                # No later probe could still skip a whole stride.
                self.active = False
            return index
        self.active = False
        self.matched = True
        stride = index - prior.index
        n_skips = (self.n_records - index) // stride
        if n_skips <= 0:
            return index
        self._apply_skip(state, prior, base, stride, n_skips)
        self.stride = stride
        self.skipped_strides = n_skips
        self.skipped_records = n_skips * stride
        return index + n_skips * stride

    def finalize(self) -> None:
        """Publish the run's fast-forward outcome on the simulator."""
        reason = None
        if not self.matched:
            reason = "digest never repeated"
            note_reason(reason)
        self.sim.fastforward_summary = {
            "engaged": True,
            "reason": reason,
            "period": self.period,
            "preamble": self.preamble,
            "quantum": self.quantum,
            "probes": self.probes,
            "stride": self.stride,
            "skipped_records": self.skipped_records,
        }

    # ------------------------------------------------------------------

    def _snapshot(self, index: int, base: float, state) -> _Probe:
        sim = self.sim
        counters = [getattr(obj, name) for obj, name in self._sites]
        hist = sim._resteer_latency
        intervals = sim.intervals
        return _Probe(
            index, base, counters,
            (state.counted_instructions, state.counted_blocks),
            sim.stats.snapshot_state(),
            (list(hist.buckets), hist.count, hist.total),
            len(intervals.rows) if intervals is not None else 0,
            dict(intervals._prev) if intervals is not None
            and intervals._prev is not None else None,
        )

    def _apply_skip(self, state, prior: _Probe, base: float,
                    stride: int, n: int) -> None:
        sim = self.sim
        shift = n * (base - prior.base)

        # Scheduler clocks: digest equality of the base-relative clocks
        # means each advanced exactly (base - prior.base) per stride.
        state.iag_free += shift
        state.fetch_free += shift
        state.decode_free += shift
        state.retire_free += shift
        # Future-dated FTQ completions shift with the clocks; past ones
        # are dead (drained unread or max()-ed against a later now).
        state.ftq_inflight = deque(
            shifted_time(done, base, shift) for done in state.ftq_inflight)
        # Cache ready times, same rule.
        hierarchy = sim.hierarchy
        for level in (hierarchy.l1i, hierarchy.l2, hierarchy.l3):
            level.shift_ready_times(base, shift)

        # Counters: c -> c + n * (c_now - c_prior).
        for (obj, name), before in zip(self._sites, prior.counters):
            now = getattr(obj, name)
            setattr(obj, name, now + n * (now - before))

        sim.stats.advance_periodic(prior.stats, n)

        state.counted_instructions += n * (
            state.counted_instructions - prior.counted[0])
        state.counted_blocks += n * (state.counted_blocks - prior.counted[1])

        hist = sim._resteer_latency
        before_buckets, before_count, before_total = prior.hist
        for i, now in enumerate(hist.buckets):
            before = before_buckets[i] if i < len(before_buckets) else 0
            hist.buckets[i] = now + n * (now - before)
        hist.count += n * (hist.count - before_count)
        hist.total += n * (hist.total - before_total)
        # min/max untouched: the skipped strides repeat the latency
        # multiset of (prior, here], which already bounds them.

        intervals = sim.intervals
        if intervals is not None and intervals.interval_size > 0:
            # interval_size == 0 collectors only emit via finish(), whose
            # single window reads the already-scaled stats directly.
            self._synthesize_intervals(intervals, prior, stride, n)
            state.next_boundary += n * stride

    @staticmethod
    def _synthesize_intervals(intervals, prior: _Probe, stride: int,
                              n: int) -> None:
        """Replicate the (prior, here] window deltas across the skip.

        The stride is a multiple of the interval size, so each skipped
        stride contributes exactly the template's windows.  Rows are
        key-completed against the cumulative row at the probe (a key
        that first appears mid-template exists -- as an explicit zero
        delta -- in every later window the oracle would emit).
        """
        rows, ends = intervals.rows, intervals.ends
        template = rows[prior.interval_len:]
        template_ends = ends[prior.interval_len:]
        prev_now = intervals._prev
        keys = list(prev_now)
        for rep in range(1, n + 1):
            offset = rep * stride
            for row, end in zip(template, template_ends):
                rows.append({key: row.get(key, 0) for key in keys})
                ends.append(end + offset)
        before = prior.interval_prev or {}
        intervals._prev = {
            key: now + n * (now - before.get(key, 0))
            for key, now in prev_now.items()}
