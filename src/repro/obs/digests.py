"""Shared structure digests: bisector state hashes and fast-forward probes.

Both digests read one protocol: every structure listed by
:meth:`repro.frontend.engine.FrontEndSimulator.structures` returns its
behavioural contents from ``state(base)``, with timestamps relative to
``base`` and past ones collapsed to ``None``.

* :func:`state_digest` -- the divergence bisector's per-window rolling
  hash of the BTB, L1-I, RAS and both SBB halves, payloads included
  (BTB kinds and targets, SBB payloads and retired bits, L1-I ready
  times) -- enough that two runs whose counters happen to agree but
  whose microarchitectural state drifted still produce differing window
  digests.
* :func:`probe_digest` -- the fast-forward layer's behavioural hash of
  every listed structure plus the scheduler clocks and FTQ.  Two probes
  at the same trace phase with equal probe digests imply the simulator
  evolves identically (modulo a uniform clock shift) over the next
  period.
"""

from __future__ import annotations

import hashlib
import marshal

from repro.frontend.caches import relative_time

__all__ = ["probe_digest", "state_digest"]


def _encode(value) -> bytes:
    """Serialise a ``state()`` value for hashing.

    marshal format 2 predates back-references, so its bytes depend only
    on the values, never on object identity; it is also several times
    faster than ``repr``.
    """
    return marshal.dumps(value, 2)


def state_digest(simulator) -> str:
    """Rolling hash of the BTB, L1-I, RAS and SBB contents.

    Deterministic across processes.
    """
    structures = simulator.structures()
    parts = [(name, structures[name].state(0.0))
             for name in ("btb", "l1i", "ras", "usbb", "rsbb")
             if name in structures]
    return hashlib.sha256(_encode(parts)).hexdigest()[:16]


def probe_digest(simulator, state, base: float) -> bytes:
    """Behavioural state hash at a fast-forward probe.

    ``state`` carries the engine-scheduler locals (the four clocks, the
    FTQ deque, ``prev_taken``); ``base`` is the probe's clock origin
    (``state.iag_free``), subtracted from every absolute timestamp so
    two phases of the same steady-state orbit hash identically.
    """
    h = hashlib.sha256()
    ftq = tuple(relative_time(done, base) for done in state.ftq_inflight)
    engine_part = (state.fetch_free - base, state.decode_free - base,
                   state.retire_free - base, ftq, state.prev_taken)
    h.update(_encode(engine_part))
    for name, structure in simulator.structures().items():
        h.update(_encode((name, structure.state(base))))
    return h.digest()
