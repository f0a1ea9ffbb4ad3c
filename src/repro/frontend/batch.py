"""Batched simulation kernel over compiled traces' executed blocks.

``FrontEndSimulator.run_compiled`` is the timing model written to be
read, and it spends most of its time in interpreter dispatch: attribute
loads on the simulator, method calls into the BPU tree, a ``SimStats``
attribute store per counter event.  This module is the same model
written to be fast: a **lane kernel**, one fully inlined replay loop per
(workload, config, seed) cell that

* reads, per record, only the compiled trace's block index, taken bit,
  target and predictor outcome byte, and unpacks one fused **block
  row** (see
  :func:`_block_rows`: kind object, line arithmetic, BTB set/tag, L1
  set numbers, decode cycles -- everything fixed by the block and the
  structure geometry);
* inlines the BTB probe/insert, the L1-I hit path, the BPU decision
  tree, the Skia FTQ-entry gates and the SBB insert walk into one
  function body with locals-bound structures;
* accumulates every ``SimStats`` counter in function locals and flushes
  them once per chunk.

A :class:`BatchedFrontEndSimulator` steps N independent lanes in
**chunked lockstep** over their (typically shared) traces: all lanes
advance through records ``[k*C, (k+1)*C)`` before any lane moves on, so
lanes over the same trace touch the same records and the same
process-wide shadow-decode tables (:mod:`repro.core.decode_tables`)
while they are hot.  Block rows are built once per (trace, structure
geometry) per batch, over the trace's executed blocks only, and shared
by every lane of that geometry.

The direction and target predictors (TAGE, the loop predictor, ITTAGE
and the RAS) train on every executed branch in order, whatever the BTB
or SBB did, so their outcomes depend only on the trace and the
predictors' setup.  They run **once per group** of lanes that share a
trace and a predictor setup (:func:`_predictor_setup`: geometry,
counters and state, the TAGE seed and a warm start included): before
the lockstep rounds, :func:`_share_predictor_passes` steps one lane's
predictors over the trace, writes one outcome byte per record, and
copies the predictor state into each other lane's own objects at that
lane's handoff.  A lane reads the shared column up to its handoff and
steps its own predictors per segment after it.  The handoff is the
trace's end for a plain lane, the first probe for a fast-forward lane
and 0 for a lane with a per-window state probe, since both probes read
predictor state.

Bit-exactness contract: a lane performs *exactly* the same structure
operations, in the same order, with the same counter updates as
``run_compiled``, except that the predictor operations of a group run
once for all its lanes; each lane still ends with the oracle's
predictor state and counters.  Final ``SimStats`` and metric snapshots
are bit-identical (enforced over the full Figure-14 grid by
``tests/frontend/test_batch_equivalence.py``, and for mixed batches of
drawn configs by ``tests/frontend/test_engine_differential.py``).  A
lane observed by attribution, an event trace or a timeline recorder
appends the oracle's outcome row (and, for a timeline, stage-time row)
per record and renders the rows when it finishes, as ``run_compiled``
does; an unobserved lane pays one ``None`` check per record.  So every
harness cell runs here, and ``run_compiled`` stays the oracle it is
tested against.  Section 7.1 comparator cells run on the kernel too:
the comparator's ``lookup``/``record``/``on_btb_miss`` hooks are bound
locals called at exactly the oracle's call sites.
"""

from __future__ import annotations

from collections import deque

from repro.core.sbb import SBBEntry
from repro.frontend.btb import BTBEntry
from repro.frontend.engine import FrontEndSimulator
from repro.frontend.fastforward import plan_compiled
from repro.frontend.stats import SimStats
from repro.isa.branch import BranchKind
from repro.obs.profiler import PROFILER
from repro.workloads.compiled import KIND_BY_CODE, CompiledTrace

#: Records each lane advances per lockstep round.  Large enough to
#: amortise the per-chunk local bind/flush, small enough that lanes
#: sharing a trace revisit the same records while they are cached.
CHUNK_RECORDS = 4096

# Per-kind flags as tuples indexed by the compiled kind *code*: tuple
# indexing by small int skips the enum-hash a kind-keyed dict would pay
# on every record.
_TAKES_TARGET_BY_CODE = tuple(bool(kind.is_direct or kind.is_indirect)
                              for kind in KIND_BY_CODE)
_IS_CALL_BY_CODE = tuple(kind.is_call for kind in KIND_BY_CODE)
_N_KINDS = len(KIND_BY_CODE)

_K_COND = BranchKind.DIRECT_COND
_K_UNCOND = BranchKind.DIRECT_UNCOND
_K_CALL = BranchKind.CALL
_K_RETURN = BranchKind.RETURN

# The predictor a record of each kind consults, as ``bpu`` does: TAGE
# (and the loop predictor) for a conditional, the RAS for a return,
# none for a direct jump or call, ITTAGE for the rest.
_OP_NONE, _OP_COND, _OP_RETURN, _OP_INDIRECT = range(4)
_OP_BY_CODE = tuple(
    _OP_COND if kind is _K_COND else _OP_RETURN if kind is _K_RETURN
    else _OP_NONE if kind is _K_UNCOND or kind is _K_CALL else _OP_INDIRECT
    for kind in KIND_BY_CODE)


def _geometry(simulator) -> tuple:
    """The structure geometry a lane's block rows depend on."""
    btb = simulator.bpu.btb
    config = simulator.config
    return (config.line_size, btb.infinite, btb.n_sets, btb.tag_bits,
            simulator.hierarchy.l1i.n_sets, config.decode_width,
            config.backend_effective_width)


def _block_rows(trace: CompiledTrace, geometry: tuple) -> list:
    """One fused kernel row per executed block of ``trace``.

    Row ``b`` holds everything the kernel reads about block ``b`` of
    ``trace.block_table`` under one structure geometry: the kind (object
    and code), branch pc, fallthrough and instruction count, plus the
    geometry-dependent fields -- the branch line and its L1 set, BTB set
    and partial tag, first line, its L1 set and the line count, entry
    offset, whether the exit is line-aligned, exit pc, tail line and
    its L1 set, decode cycles and retire delta.  The kernel unpacks one
    row per record (a single C-level ``UNPACK_SEQUENCE`` instead of ~20
    column subscripts); only the taken bit and the target are read per
    record.
    """
    (line_size, btb_infinite, btb_n_sets, btb_tag_bits, l1_n_sets,
     decode_width, backend_width) = geometry
    table = trace.block_table
    line_mask = ~(line_size - 1)
    block_start = table["block_start"]
    branch_pc = table["branch_pc"]
    n_instr = table["n_instr"]
    kind_code = table["kind"].tolist()
    exit_pc = branch_pc + table["branch_len"]
    if btb_infinite:
        bidx = btag = [0] * trace.n_blocks
    else:
        word = branch_pc >> 1
        bidx = ((word ^ (word >> 11) ^ (word >> 23)) % btb_n_sets).tolist()
        btag = ((word // btb_n_sets) & ((1 << btb_tag_bits) - 1)).tolist()
    branch_line = branch_pc & line_mask
    first_line = block_start & line_mask
    tail_line = (exit_pc - 1) & line_mask
    return list(zip(
        [KIND_BY_CODE[code] for code in kind_code], kind_code,
        branch_pc.tolist(), table["fallthrough"].tolist(), n_instr.tolist(),
        branch_line.tolist(), ((branch_line // line_size) % l1_n_sets).tolist(),
        bidx, btag,
        first_line.tolist(), ((first_line // line_size) % l1_n_sets).tolist(),
        ((tail_line - first_line) // line_size + 1).tolist(),
        (block_start & (line_size - 1)).tolist(),
        (exit_pc & (line_size - 1) == 0).tolist(),
        exit_pc.tolist(), tail_line.tolist(),
        ((tail_line // line_size) % l1_n_sets).tolist(),
        ((n_instr + (decode_width - 1)) // decode_width).tolist(),
        (n_instr / backend_width).tolist()))


def _predictor_rows(trace: CompiledTrace) -> list:
    """Per executed block: ``(op, branch pc, return address)``, the
    return address being the fallthrough of a call and ``None`` for
    every other kind."""
    table = trace.block_table
    return [(_OP_BY_CODE[code], pc, fallthrough if _IS_CALL_BY_CODE[code]
             else None)
            for code, pc, fallthrough in zip(table["kind"].tolist(),
                                             table["branch_pc"].tolist(),
                                             table["fallthrough"].tolist())]


def _predictors(simulator) -> tuple:
    """A simulator's TAGE, ITTAGE, loop predictor (or ``None``) and RAS."""
    bpu = simulator.bpu
    return bpu.tage, bpu.ittage, bpu.loop, bpu.ras


def _predictor_setup(simulator) -> tuple:
    """Everything a lane's predictor outcomes depend on besides the
    trace: per predictor, its type, its plain attributes (geometry and
    counters) and ``state(0.0)``, which covers every other attribute
    (the structural coverage test checks that)."""
    return tuple(
        None if predictor is None else (
            type(predictor),
            tuple((name, value) for name, value in vars(predictor).items()
                  if isinstance(value, (int, float, str, tuple))),
            predictor.state(0.0))
        for predictor in _predictors(simulator))


def _predict(predictors: tuple, rows: list, trace: CompiledTrace,
             start: int, stop: int) -> bytes:
    """Step ``predictors`` over records ``[start, stop)``; one outcome
    byte per record.

    Each record makes exactly the predictor calls ``bpu.process`` makes
    for it, in the same order.  Bit 0 says the prediction was correct;
    bit 1 says a conditional was predicted taken, or a return found the
    RAS empty.
    """
    tage, ittage, loop, ras = predictors
    tage_update = tage.update
    loop_on = loop is not None
    loop_predict = loop.predict if loop_on else None
    loop_update = loop.update if loop_on else None
    ittage_update = ittage.update
    ras_pop = ras.pop
    ras_push = ras.push
    op_cond = _OP_COND
    op_return = _OP_RETURN
    op_indirect = _OP_INDIRECT
    out = bytearray()
    append = out.append
    for block, taken, target in zip(trace.blocks[start:stop],
                                    trace.taken[start:stop],
                                    trace.target[start:stop]):
        op, pc, return_address = rows[block]
        if op == op_cond:
            predicted = tage_update(pc, taken)
            if loop_on:
                lp = loop_predict(pc)
                loop_update(pc, taken)
                if lp is not None:
                    predicted = lp
            append((predicted == taken) + 2 * predicted)
        elif op == op_return:
            predicted = ras_pop()
            append(2 if predicted is None else predicted == target)
        elif op == op_indirect:
            append(ittage_update(pc, target) == target)
        else:
            append(0)
        if return_address is not None:
            ras_push(return_address)
    return bytes(out)


def _share_predictor_passes(lanes: list) -> None:
    """Step the predictors once per group of lanes that share a trace
    and a predictor setup, and hand each lane its state.

    The lane with the latest handoff steps its own predictors; at each
    earlier lane's handoff, that lane's predictors become copies of
    them.  Every lane of the group reads the one outcome column up to
    its handoff.
    """
    groups: dict[tuple, list] = {}
    for lane in lanes:
        if lane.handoff:
            groups.setdefault((lane.compiled, lane.setup), []).append(lane)
    for group in groups.values():
        group.sort(key=lambda lane: lane.handoff)
        owner = group[-1]
        parts = []
        cursor = 0
        for lane in group:
            if lane.handoff > cursor:
                parts.append(_predict(owner.predictors, owner.predictor_rows,
                                      owner.compiled, cursor, lane.handoff))
                cursor = lane.handoff
            if lane is not owner:
                for mine, shared in zip(lane.predictors, owner.predictors):
                    if mine is not None:
                        mine.copy_from(shared)
        column = b"".join(parts)
        for lane in group:
            lane.column = column


class _Lane:
    """One cell's replay state, advanced chunk by chunk."""

    def __init__(self, simulator: FrontEndSimulator, compiled, warmup: int,
                 block_rows: list, predictor_rows: list, ff=None):
        self.sim = simulator
        self.compiled = compiled
        #: The trace's block rows for this lane's geometry (shared).
        self.block_rows = block_rows
        #: The trace's per-block predictor rows (see _predictor_rows).
        self.predictor_rows = predictor_rows
        self.warmup = warmup
        self.n_records = compiled.n_records

        # Fast-forward controller (repro.frontend.fastforward); the lane
        # passes *itself* as the probe's state carrier -- its attribute
        # names match ProbeState's.  ``_resume`` marks where a skip
        # landed: lockstep chunks before it are already accounted for.
        self.ff = ff
        self._resume = 0

        # Scheduler state (persists across chunks; mirrors the engine).
        self.iag_free = 0.0
        self.fetch_free = 0.0
        self.decode_free = 0.0
        self.retire_free = 0.0
        self.ftq_inflight: deque = deque()
        self.prev_taken = True
        self.counting = False
        self.counted_instructions = 0
        self.counted_blocks = 0
        self.cycles_at_count_start = 0.0
        self.wp_at_count_start = 0
        self.processed = 0
        #: Outcome rows when an observer is attached, and stage-time
        #: rows for a timeline recorder (fast-forward then never
        #: engages, so row i is record i).
        self.rows, self.times = simulator._outcome_rows()

        # Interval telemetry: boundaries are record indices, so the lane
        # splits its chunks there and emits between kernel invocations
        # (the kernel flushes its chunk-local accumulators into
        # ``sim.stats`` at the end of every ``_advance``, so the stats
        # object is exact at each boundary).
        self.intervals = simulator.intervals
        self.next_boundary = 0
        if self.intervals is not None:
            self.intervals.warmup = warmup
            self.next_boundary = self.intervals.interval_size

        # Predictor outcomes: records before ``handoff`` read the
        # group's shared ``column`` (see _share_predictor_passes), which
        # leaves this lane's predictors in their state at ``handoff``;
        # later records step them per segment.  A fast-forward probe
        # digests predictor state and a state probe samples the RAS, so
        # the handoff comes no later than the first of either.
        self.predictors = _predictors(simulator)
        self.setup = _predictor_setup(simulator)
        if self.intervals is not None \
                and self.intervals.state_probe is not None:
            self.handoff = 0
        elif ff is not None:
            self.handoff = ff.next_probe
        else:
            self.handoff = self.n_records
        self.column = b""

    def advance(self, start: int, stop: int) -> None:
        """Advance through records ``[start, stop)`` of one lockstep
        round, probing for skips.

        Chunks at or before a fast-forward skip's landing point are
        already accounted for and no-op; otherwise the segment splits
        at the controller's probe indices.  The kernel flushes every
        chunk-local accumulator at the end of each ``_advance``, so the
        state a probe digests is exact.
        """
        if start < self._resume:
            start = self._resume
            if start >= stop:
                return
        ff = self.ff
        if ff is not None:
            while ff.active and start <= ff.next_probe < stop:
                probe = ff.next_probe
                if probe > start:
                    self._advance_segment(start, probe)
                start = ff.on_probe(probe, self)
                self.processed = start
                self._resume = start
                if start >= stop:
                    return
        self._advance_segment(start, stop)

    def _advance_segment(self, start: int, stop: int) -> None:
        """Advance through records [start, stop).

        Splits the segment at interval-window boundaries (emitting one
        telemetry row per crossing) and at the warmup boundary, so both
        transitions happen between kernel invocations -- the kernel then
        treats ``counting`` as segment-constant and the per-window rows
        cut at exactly the record indices ``run_compiled`` uses.
        """
        intervals = self.intervals
        if intervals is None:
            self._advance_warm(start, stop)
            return
        size = intervals.interval_size
        cursor = start
        while cursor < stop:
            boundary = self.next_boundary
            if boundary <= stop:
                self._advance_warm(cursor, boundary)
                intervals.boundary(
                    boundary, self.sim.stats, self.counted_instructions,
                    self.counted_blocks,
                    self.retire_free - self.cycles_at_count_start
                    if self.counting else 0.0)
                self.next_boundary = boundary + size
                cursor = boundary
            else:
                self._advance_warm(cursor, stop)
                cursor = stop

    def _advance_warm(self, start: int, stop: int) -> None:
        """One segment, split at the warmup boundary."""
        if not self.counting:
            warmup = self.warmup
            if start < warmup < stop:
                self._advance(start, warmup)
                self._advance(warmup, stop)
                return
        self._advance(start, stop)

    def _outcomes(self, start: int, stop: int) -> bytes:
        """Predictor outcome bytes (see :func:`_predict`) for records
        ``[start, stop)``: the shared column before the handoff, this
        lane's own predictors from there on."""
        handoff = self.handoff
        if stop <= handoff:
            return self.column[start:stop]
        own = _predict(self.predictors, self.predictor_rows, self.compiled,
                       max(start, handoff), stop)
        return self.column[start:handoff] + own if start < handoff else own

    # The kernel: one fully inlined replay of records [start, stop).
    # Every structure operation and counter update below replicates the
    # oracle (engine.run_compiled + bpu.process +
    # skia.on_ftq_entry) operation-for-operation; only the dispatch
    # around them is flattened.
    def _advance(self, start: int, stop: int) -> None:
        sim = self.sim
        config = sim.config
        stats_obj = sim.stats
        hierarchy = sim.hierarchy
        bpu = sim.bpu
        btb = bpu.btb
        skia = sim.skia

        line_size = config.line_size
        line_mask = ~(line_size - 1)
        ftq_size = config.ftq_size
        iag_to_fetch = config.iag_to_fetch_delay
        fetch_to_decode = config.fetch_to_decode_delay
        repair = config.decode_repair_cycles
        btb_extra = config.btb_access_latency() - 1
        exec_resolve = config.exec_resolve_delay
        pollution_max = config.pollution_max_lines

        if not self.counting and start >= self.warmup:
            self.counting = True
            self.cycles_at_count_start = self.retire_free
            self.wp_at_count_start = hierarchy.wrong_path_fills

        # Per record: its block's row (see _block_rows), taken bit,
        # target and predictor outcome byte.
        trace = self.compiled
        block_rows = self.block_rows
        records = zip(trace.blocks[start:stop], trace.taken[start:stop],
                      trace.target[start:stop], self._outcomes(start, stop))

        # Structures, locals-bound.
        l1i = hierarchy.l1i
        l1_sets = l1i._sets
        l1_n_sets = l1i.n_sets
        fill_miss = hierarchy.fill_after_l1_miss
        btb_infinite = btb.infinite
        btb_full = btb._full
        btb_sets = btb._sets
        btb_assoc = btb.assoc
        comp = bpu.comparator
        comp_on = comp is not None
        comp_lookup = comp.lookup if comp_on else None
        comp_record = comp.record if comp_on else None
        comp_on_btb_miss = comp.on_btb_miss if comp_on else None
        skia_on = skia is not None
        heads_on = skia_on and skia.config.decode_heads
        tails_on = skia_on and skia.config.decode_tails
        sbb_lookup = skia.sbb.lookup if skia_on else None
        sbb_mark_retired = skia.sbb.mark_retired if skia_on else None
        oracle = skia.boundary_oracle if skia_on else None
        if skia_on:
            # Decode-memo internals: the hit path (raw dict get + LRU
            # re-insert + counter bump) is inlined below; misses fall
            # back to the decoder's _head_missing/_tail_missing with the
            # exact counter sequence of the decode_head/decode_tail
            # wrappers.
            sbd = skia.sbd
            head_memo = sbd._head_memo
            hm_data = head_memo._data
            head_missing = sbd._head_missing
            tail_memo = sbd._tail_memo
            tm_data = tail_memo._data
            tail_missing = sbd._tail_missing
            # SBB structure internals for the inlined insert walk.
            usbb = skia.sbb.usbb
            u_sets = usbb._sets
            u_n_sets = usbb.n_sets
            u_assoc = usbb.assoc
            u_tag_mask = (1 << usbb.tag_bits) - 1
            u_evict = usbb._evict
            rsbb = skia.sbb.rsbb
            r_sets = rsbb._sets
            r_n_sets = rsbb.n_sets
            r_assoc = rsbb.assoc
            r_tag_mask = (1 << rsbb.tag_bits) - 1
            r_evict = rsbb._evict
        sbb_entry_cls = SBBEntry
        takes_target = _TAKES_TARGET_BY_CODE
        k_cond = _K_COND
        k_uncond = _K_UNCOND
        k_call = _K_CALL
        k_return = _K_RETURN
        btb_entry_cls = BTBEntry

        branches_d = stats_obj.branches
        btb_misses_d = stats_obj.btb_misses
        resteer_causes_d = stats_obj.resteer_causes
        hist_record = sim._resteer_latency.record
        rows_append = None if self.rows is None else self.rows.append
        times_append = None if self.times is None else self.times.append
        hres = tres = None

        # Scheduler state, locals-bound.
        iag_free = self.iag_free
        fetch_free = self.fetch_free
        decode_free = self.decode_free
        retire_free = self.retire_free
        ftq_inflight = self.ftq_inflight
        ftq_popleft = ftq_inflight.popleft
        ftq_append = ftq_inflight.append
        prev_taken = self.prev_taken
        counting = self.counting
        counted_instructions = self.counted_instructions
        counted_blocks = self.counted_blocks
        # The fetch and decode clocks a record starts with, kept only
        # for stage-time rows (the oracle's fetch stall and decoder idle).
        times_fetch_free = fetch_free
        times_decode_free = decode_free

        # Chunk-local stat accumulators, flushed once at the end.
        s_btb_lookups = 0
        s_taken_branches = 0
        s_btb_miss_l1i_hit = 0
        s_sbb_lookups = 0
        s_sbb_misses = 0
        s_comparator_hits = 0
        s_btb_false_hits = 0
        s_cond_predictions = 0
        s_cond_mispredicts = 0
        s_ras_predictions = 0
        s_ras_underflows = 0
        s_ras_mispredicts = 0
        s_indirect_predictions = 0
        s_indirect_mispredicts = 0
        s_sbb_hits_u = 0
        s_sbb_hits_r = 0
        s_sbb_wrong_target = 0
        s_sbb_retired_marks = 0
        s_sbd_head_decodes = 0
        s_sbd_head_discarded = 0
        s_sbd_tail_decodes = 0
        s_sbb_insertions_u = 0
        s_sbb_insertions_r = 0
        s_sbb_bogus_insertions = 0
        s_l1i_accesses = 0
        s_l1i_misses = 0
        s_l2_misses = 0
        s_l3_misses = 0
        s_fetch_stall = 0.0
        s_decoder_idle = 0.0
        s_decode_resteers = 0
        s_exec_resteers = 0
        c_btb_lookups = 0
        c_btb_hits = 0
        c_l1_accesses = 0
        c_l1_misses = 0
        c_u_insertions = 0
        c_r_insertions = 0
        cnt_branches = [0] * _N_KINDS
        cnt_btb_misses = [0] * _N_KINDS

        for block, taken, target, outcome in records:
            (kind, kcode, branch_pc, fallthrough, n_instr, branch_line,
             bl_set, bidx, btag, first_line, fl_set, n_lines, entry_offset,
             tail_aligned, exit_pc, tail_line, tl_set, decode_cycles,
             retire_delta) = block_rows[block]
            # ----- IAG: allocate the FTQ entry ------------------------
            iag_t = iag_free
            while ftq_inflight and ftq_inflight[0] <= iag_t:
                ftq_popleft()
            if len(ftq_inflight) >= ftq_size:
                iag_t = ftq_popleft()

            # ----- BPU (bpu.process, inlined) -------------------------
            branch_line_present = branch_line in l1_sets[bl_set]

            c_btb_lookups += 1
            if btb_infinite:
                entry = btb_full.get(branch_pc)
                if entry is not None:
                    c_btb_hits += 1
            else:
                bway = btb_sets[bidx]
                entry = bway.get(btag)
                if entry is not None:
                    del bway[btag]
                    bway[btag] = entry
                    c_btb_hits += 1

            centry = None
            sbb_result = None
            if entry is None:
                if comp_on:
                    centry = comp_lookup(branch_pc, branch_line_present)
                if centry is None and skia_on:
                    sbb_result = sbb_lookup(branch_pc)

            if counting:
                s_btb_lookups += 1
                cnt_branches[kcode] += 1
                if taken:
                    s_taken_branches += 1
                if entry is None:
                    cnt_btb_misses[kcode] += 1
                    if branch_line_present:
                        s_btb_miss_l1i_hit += 1
                    if centry is not None:
                        s_comparator_hits += 1
                    elif skia_on:
                        s_sbb_lookups += 1
                        if sbb_result is None:
                            s_sbb_misses += 1

            # Predictors (bpu._predict_*).  Whichever way the decision
            # tree below goes, the oracle consults the branch kind's
            # predictor exactly once -- in the case handler, or in
            # _train_side_predictors on the alias and SBB-wrong-target
            # paths -- and no lookup or comparator hook reads predictor
            # state.  So the calls depend on the trace alone and ran
            # ahead of the kernel (_predict); the kernel reads their
            # outcome byte.
            correct = outcome & 1
            if counting:
                if kind is k_cond:
                    s_cond_predictions += 1
                    if not correct:
                        s_cond_mispredicts += 1
                elif kind is k_return:
                    s_ras_predictions += 1
                    if outcome & 2:
                        s_ras_underflows += 1
                    if not correct:
                        s_ras_mispredicts += 1
                elif kind is not k_uncond and kind is not k_call:
                    s_indirect_predictions += 1
                    if not correct:
                        s_indirect_mispredicts += 1

            resteer = None
            cause = None
            wrong_pc = None
            used_sbb = False
            sbb_which = None

            # A comparator hit rides the BTB-hit decision tree with the
            # comparator's entry (the object path routes both through
            # bpu._process_btb_hit); only the counting block above and
            # the structure counters distinguish the two.
            dentry = entry if entry is not None else centry
            if dentry is not None:
                if dentry.kind is not kind:
                    if counting:
                        s_btb_false_hits += 1
                    if taken:
                        resteer = "decode"
                        cause = "btb_alias"
                        wrong_pc = fallthrough
                elif kind is k_uncond or kind is k_call:
                    if dentry.target != target:
                        resteer = "decode"
                        cause = "btb_stale_target"
                        wrong_pc = fallthrough
                elif not correct:
                    resteer = "exec"
                    wrong_pc = fallthrough
                    if kind is k_cond:
                        cause = "cond_mispredict"
                        if not taken:
                            wrong_pc = target
                    elif kind is k_return:
                        cause = "ras_mispredict"
                    else:
                        cause = "indirect_mispredict"
            elif sbb_result is not None:
                sbb_which, sentry = sbb_result
                if sbb_which == "u":
                    if counting:
                        s_sbb_hits_u += 1
                    if ((kind is k_uncond or kind is k_call)
                            and sentry.payload == target):
                        used_sbb = True
                elif counting:
                    s_sbb_hits_r += 1
                if sbb_which == "r" and kind is k_return:
                    if correct:
                        used_sbb = True
                    else:
                        resteer = "exec"
                        cause = "ras_mispredict"
                        wrong_pc = fallthrough
                elif not used_sbb:
                    if counting:
                        s_sbb_wrong_target += 1
                    resteer = "decode"
                    cause = "sbb_wrong_target"
                    wrong_pc = fallthrough
            else:
                if comp_on:
                    comp_on_btb_miss(first_line + entry_offset)
                wrong_pc = fallthrough
                if kind is k_cond:
                    if not taken:
                        if outcome & 2:
                            resteer = "exec"
                            cause = "cond_mispredict"
                            wrong_pc = target
                    elif outcome & 2:
                        resteer = "decode"
                        cause = "undetected_branch"
                    else:
                        resteer = "exec"
                        cause = "cond_mispredict"
                elif kind is k_uncond or kind is k_call or correct:
                    resteer = "decode"
                    cause = "undetected_branch"
                else:
                    resteer = "exec"
                    cause = ("ras_mispredict" if kind is k_return
                             else "indirect_mispredict")

            # Commit updates (bpu._commit_updates, inlined).
            btb_target = target if takes_target[kcode] else None
            if btb_infinite:
                ientry = btb_full.get(branch_pc)
                if ientry is not None:
                    ientry.kind = kind
                    ientry.target = btb_target
                else:
                    btb_full[branch_pc] = btb_entry_cls(
                        tag=branch_pc, kind=kind, target=btb_target)
            else:
                ientry = bway.pop(btag, None)
                if ientry is not None:
                    ientry.kind = kind
                    ientry.target = btb_target
                else:
                    if len(bway) >= btb_assoc:
                        bway.pop(next(iter(bway)))
                    ientry = btb_entry_cls(tag=btag, kind=kind,
                                           target=btb_target)
                bway[btag] = ientry
            if comp_on:
                comp_record(branch_pc, kind, btb_target)
            if used_sbb:
                if sbb_mark_retired(branch_pc, sbb_which) and counting:
                    s_sbb_retired_marks += 1

            # ----- Prefetch the entry's lines -------------------------
            lines_ready = iag_t
            line = first_line
            lset = fl_set
            count = n_lines
            while count:
                way = l1_sets[lset]
                c_l1_accesses += 1
                ready = way.get(line)
                if ready is not None:
                    del way[line]
                    way[line] = ready
                    if ready > lines_ready:
                        lines_ready = ready
                    if counting:
                        s_l1i_accesses += 1
                else:
                    c_l1_misses += 1
                    fill_time, level = fill_miss(line, iag_t)
                    if fill_time > lines_ready:
                        lines_ready = fill_time
                    if counting:
                        s_l1i_accesses += 1
                        s_l1i_misses += 1
                        if level >= 3:
                            s_l2_misses += 1
                        if level >= 4:
                            s_l3_misses += 1
                count -= 1
                if count:
                    line += line_size
                    lset = (line // line_size) % l1_n_sets

            # ----- Skia (skia.on_ftq_entry, inlined) ------------------
            # Structurally-empty decodes (line-aligned entry/exit) are
            # skipped outright: the object path's decoder early-returns
            # for them with no cache or counter activity.  Both decodes
            # run before the one SBB insert walk: the SBD never reads the
            # SBB, so the SBB still sees the oracle's insert order (head
            # branches, then tail branches).
            if skia_on:
                hres = tres = None
                found = ()
                if (heads_on and prev_taken and entry_offset != 0
                        and first_line in l1_sets[fl_set]):
                    hkey = (first_line, entry_offset)
                    hres = hm_data.get(hkey)
                    if hres is not None:
                        head_memo.hits += 1
                        del hm_data[hkey]
                        hm_data[hkey] = hres
                    else:
                        head_memo.misses += 1
                        hres = head_missing(hkey, first_line,
                                            entry_offset)
                        head_memo[hkey] = hres
                    if counting:
                        s_sbd_head_decodes += 1
                        if hres.discarded:
                            s_sbd_head_discarded += 1
                    found = hres.branches
                if (tails_on and taken and not tail_aligned
                        and tail_line in l1_sets[tl_set]):
                    tkey = (tail_line, exit_pc - tail_line)
                    tres = tm_data.get(tkey)
                    if tres is not None:
                        tail_memo.hits += 1
                        del tm_data[tkey]
                        tm_data[tkey] = tres
                    else:
                        tail_memo.misses += 1
                        tres = tail_missing(tkey, exit_pc,
                                            tail_line + line_size)
                        tail_memo[tkey] = tres
                    if counting:
                        s_sbd_tail_decodes += 1
                    found = found + tres.branches if found \
                        else tres.branches
                if found:
                    for sb in found:
                        sb_pc = sb.pc
                        word = sb_pc >> 1
                        if sb.kind is k_return:
                            if r_n_sets:
                                stag = (word // r_n_sets) & r_tag_mask
                                way = r_sets[(word ^ (word >> 11)
                                              ^ (word >> 23)) % r_n_sets]
                                c_r_insertions += 1
                                existing = way.get(stag)
                                if existing is not None:
                                    del way[stag]
                                    existing.payload = sb_pc % line_size
                                    way[stag] = existing
                                else:
                                    if len(way) >= r_assoc:
                                        r_evict(way)
                                    way[stag] = sbb_entry_cls(
                                        tag=stag, payload=sb_pc % line_size)
                            if counting:
                                s_sbb_insertions_r += 1
                        else:
                            sb_target = sb.target
                            if sb_target is None:  # pragma: no cover
                                continue
                            if u_n_sets:
                                stag = (word // u_n_sets) & u_tag_mask
                                way = u_sets[(word ^ (word >> 11)
                                              ^ (word >> 23)) % u_n_sets]
                                c_u_insertions += 1
                                existing = way.get(stag)
                                if existing is not None:
                                    del way[stag]
                                    existing.payload = sb_target
                                    way[stag] = existing
                                else:
                                    if len(way) >= u_assoc:
                                        u_evict(way)
                                    way[stag] = sbb_entry_cls(
                                        tag=stag, payload=sb_target)
                            if counting:
                                s_sbb_insertions_u += 1
                        if (counting and oracle is not None
                                and not oracle(sb_pc)):
                            s_sbb_bogus_insertions += 1

            # ----- Fetch ----------------------------------------------
            fetch_start = fetch_free
            other = iag_t + iag_to_fetch
            if other > fetch_start:
                fetch_start = other
            if lines_ready > fetch_start:
                if counting:
                    s_fetch_stall += lines_ready - fetch_start
                fetch_start = lines_ready
            fetch_done = fetch_start + n_lines
            fetch_free = fetch_done
            ftq_append(fetch_done)

            # ----- Decode ---------------------------------------------
            input_ready = fetch_done + fetch_to_decode
            decode_start = decode_free if decode_free > input_ready \
                else input_ready
            if counting:
                s_decoder_idle += decode_start - decode_free
            decode_done = decode_start + decode_cycles
            decode_free = decode_done

            # ----- Retire ---------------------------------------------
            retire_start = decode_done + 1
            if retire_free > retire_start:
                retire_start = retire_free
            retire_free = retire_start + retire_delta

            # ----- Resteer / next-entry scheduling --------------------
            if resteer is None:
                iag_free = iag_t + 1
            else:
                if resteer == "decode":
                    detect = decode_done
                    if counting:
                        s_decode_resteers += 1
                else:
                    detect = decode_done + exec_resolve
                    if counting:
                        s_exec_resteers += 1
                restart = detect + repair + btb_extra
                if counting:
                    ckey = cause or "unattributed"
                    resteer_causes_d[ckey] = (
                        resteer_causes_d.get(ckey, 0) + 1)
                    hist_record(restart - iag_t)
                if wrong_pc is not None:
                    wrong_line = wrong_pc & line_mask
                    depth = min(pollution_max, ftq_size,
                                int(restart - iag_t))
                    for step in range(1, depth + 1):
                        pline = wrong_line + step * line_size
                        way = l1_sets[(pline // line_size) % l1_n_sets]
                        c_l1_accesses += 1
                        ready = way.get(pline)
                        if ready is not None:
                            del way[pline]
                            way[pline] = ready
                        else:
                            c_l1_misses += 1
                            fill_miss(pline, iag_t + step, True)
                    if counting:
                        stats_obj.wrong_path_fills = (
                            hierarchy.wrong_path_fills
                            - self.wp_at_count_start)
                iag_free = restart
                ftq_inflight.clear()
                if restart > fetch_free:
                    fetch_free = restart

            if rows_append is not None:
                rows_append((entry is not None, branch_line_present,
                             centry is not None, sbb_which, hres, tres,
                             resteer, cause,
                             None if resteer is None else restart - iag_t))
                if times_append is not None:
                    # ``other`` becomes the fetch start before any stall.
                    if times_fetch_free > other:
                        other = times_fetch_free
                    times_append((
                        iag_t, lines_ready, fetch_start, fetch_done,
                        fetch_start - other, decode_start, decode_done,
                        decode_start - times_decode_free, retire_start,
                        retire_free, None if resteer is None else detect,
                        used_sbb))
                    times_fetch_free = fetch_free
                    times_decode_free = decode_free
            if counting:
                counted_instructions += n_instr
                counted_blocks += 1
            prev_taken = taken

        # ----- Flush chunk-local accumulators -------------------------
        stats_obj.btb_lookups += s_btb_lookups
        stats_obj.taken_branches += s_taken_branches
        stats_obj.btb_miss_l1i_hit += s_btb_miss_l1i_hit
        stats_obj.sbb_lookups += s_sbb_lookups
        stats_obj.sbb_misses += s_sbb_misses
        stats_obj.comparator_hits += s_comparator_hits
        stats_obj.btb_false_hits += s_btb_false_hits
        stats_obj.cond_predictions += s_cond_predictions
        stats_obj.cond_mispredicts += s_cond_mispredicts
        stats_obj.ras_predictions += s_ras_predictions
        stats_obj.ras_underflows += s_ras_underflows
        stats_obj.ras_mispredicts += s_ras_mispredicts
        stats_obj.indirect_predictions += s_indirect_predictions
        stats_obj.indirect_mispredicts += s_indirect_mispredicts
        stats_obj.sbb_hits_u += s_sbb_hits_u
        stats_obj.sbb_hits_r += s_sbb_hits_r
        stats_obj.sbb_wrong_target += s_sbb_wrong_target
        stats_obj.sbb_retired_marks += s_sbb_retired_marks
        stats_obj.sbd_head_decodes += s_sbd_head_decodes
        stats_obj.sbd_head_discarded += s_sbd_head_discarded
        stats_obj.sbd_tail_decodes += s_sbd_tail_decodes
        stats_obj.sbb_insertions_u += s_sbb_insertions_u
        stats_obj.sbb_insertions_r += s_sbb_insertions_r
        stats_obj.sbb_bogus_insertions += s_sbb_bogus_insertions
        stats_obj.l1i_accesses += s_l1i_accesses
        stats_obj.l1i_misses += s_l1i_misses
        stats_obj.l2_misses += s_l2_misses
        stats_obj.l3_misses += s_l3_misses
        stats_obj.fetch_stall_cycles += s_fetch_stall
        stats_obj.decoder_idle_cycles += s_decoder_idle
        stats_obj.decode_resteers += s_decode_resteers
        stats_obj.exec_resteers += s_exec_resteers
        kind_by_code = KIND_BY_CODE
        for code in range(_N_KINDS):
            count = cnt_branches[code]
            if count:
                branches_d[kind_by_code[code]] += count
            count = cnt_btb_misses[code]
            if count:
                btb_misses_d[kind_by_code[code]] += count
        btb.lookups += c_btb_lookups
        btb.hits += c_btb_hits
        l1i.accesses += c_l1_accesses
        l1i.misses += c_l1_misses
        if skia_on:
            usbb.insertions += c_u_insertions
            rsbb.insertions += c_r_insertions

        self.iag_free = iag_free
        self.fetch_free = fetch_free
        self.decode_free = decode_free
        self.retire_free = retire_free
        # ``taken`` is a 0/1 int here; the probe digest hashes the bool.
        self.prev_taken = bool(prev_taken)
        self.counting = counting
        self.counted_instructions = counted_instructions
        self.counted_blocks = counted_blocks
        self.processed += stop - start

    def finish(self) -> SimStats:
        """Final stats assembly; mirrors the engine's loop epilogue."""
        sim = self.sim
        stats = sim.stats
        if self.ff is not None:
            self.ff.finalize()
        if self.rows is not None:
            sim._render_outcomes(self.compiled, self.rows, self.times,
                                 self.warmup)
            self.rows = self.times = None
        if self.intervals is not None:
            self.intervals.finish(
                self.processed, stats, self.counted_instructions,
                self.counted_blocks,
                self.retire_free - self.cycles_at_count_start
                if self.counting else 0.0)
        sim._records_seen += self.processed
        stats.instructions = self.counted_instructions
        stats.blocks = self.counted_blocks
        stats.cycles = max(self.retire_free - self.cycles_at_count_start,
                           1e-9)
        return stats


class BatchedFrontEndSimulator:
    """Advance many independent cells in chunked lockstep.

    Add one lane per (workload, config, seed) cell with
    :meth:`add_lane`, then :meth:`run` steps every lane through records
    ``[0, C)``, ``[C, 2C)``, ... so lanes sharing a trace reuse its
    block rows and the process-wide shadow-decode tables while hot.
    Each lane's final ``SimStats`` is bit-identical to what
    ``FrontEndSimulator.run_compiled`` would have produced.  A batch is
    single-shot: a second :meth:`run`, or :meth:`add_lane` after the
    first, raises ``RuntimeError`` instead of replaying the trace on
    top of finished lanes.
    """

    def __init__(self, chunk_records: int = CHUNK_RECORDS):
        if chunk_records <= 0:
            raise ValueError("chunk_records must be positive")
        self.chunk_records = chunk_records
        self._lanes: list[_Lane] = []
        #: Block rows per (trace, geometry), shared by the batch's lanes.
        self._block_rows: dict[tuple, list] = {}
        #: Predictor rows per trace.
        self._predictor_rows: dict[CompiledTrace, list] = {}
        self._ran = False

    def __len__(self) -> int:
        return len(self._lanes)

    def add_lane(self, simulator: FrontEndSimulator,
                 compiled: CompiledTrace, warmup: int = 0) -> None:
        """Register one cell; raises ``RuntimeError`` once :meth:`run`
        has started."""
        if self._ran:
            raise RuntimeError("add_lane() after run(); build a new batch")
        ff = plan_compiled(simulator, compiled, warmup)
        key = (compiled, _geometry(simulator))
        rows = self._block_rows.get(key)
        if rows is None:
            rows = self._block_rows[key] = _block_rows(*key)
        predictor_rows = self._predictor_rows.get(compiled)
        if predictor_rows is None:
            predictor_rows = self._predictor_rows[compiled] = \
                _predictor_rows(compiled)
        self._lanes.append(_Lane(simulator, compiled, warmup, rows,
                                 predictor_rows, ff=ff))

    def run(self) -> list[SimStats]:
        """Run every lane to completion; stats in ``add_lane`` order."""
        if PROFILER.enabled:
            with PROFILER.section("engine.run_batched"):
                return self._run()
        return self._run()

    def _run(self) -> list[SimStats]:
        if self._ran:
            raise RuntimeError("BatchedFrontEndSimulator.run() is "
                               "single-shot; build a new batch")
        self._ran = True
        lanes = self._lanes
        _share_predictor_passes(lanes)
        chunk = self.chunk_records
        longest = max((lane.n_records for lane in lanes), default=0)
        for start in range(0, longest, chunk):
            for lane in lanes:
                if start < lane.n_records:
                    lane.advance(start, min(start + chunk, lane.n_records))
        return [lane.finish() for lane in lanes]


def run_compiled_batched(simulator: FrontEndSimulator,
                         compiled: CompiledTrace,
                         warmup: int = 0) -> SimStats:
    """Single-cell convenience: the kernel still wins without lane
    sharing (inlined loop, block rows, local counters)."""
    batch = BatchedFrontEndSimulator()
    batch.add_lane(simulator, compiled, warmup=warmup)
    return batch.run()[0]
