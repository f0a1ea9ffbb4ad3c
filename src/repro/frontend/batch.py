"""Batched simulation kernel over compiled-trace decode tables.

``FrontEndSimulator.run_compiled`` is the timing model written to be
read, and it spends most of its time in interpreter dispatch: attribute
loads on the simulator, method calls into the BPU tree, a ``SimStats``
attribute store per counter event.  This module is the same model
written to be fast: a **lane kernel**, one fully inlined replay loop per
(workload, config, seed) cell that

* reads records from a shared :class:`~repro.workloads.compiled
  .TraceDecodeTable` (plain Python lists: kinds already objects, takens
  already bools, line arithmetic already done) instead of re-deriving
  fields per record per cell;
* inlines the BTB probe/insert, the L1-I hit path, the BPU decision
  tree, the Skia FTQ-entry gates and the SBB insert walk into one
  function body with locals-bound structures;
* accumulates every ``SimStats`` counter in function locals and flushes
  them once per chunk.

A :class:`BatchedFrontEndSimulator` steps N independent lanes in
**chunked lockstep** over their (typically shared) decode tables: all
lanes advance through records ``[k*C, (k+1)*C)`` before any lane moves
on.  Lanes over the same trace therefore touch the same table rows and
the same process-wide shadow-decode tables (:mod:`repro.core
.decode_tables`) while they are hot.  The kernel's per-record row
tuples are fused one round at a time, by the first lane that steps
records of the round, and shared by every lane with the same table and
structure geometry until the round ends; rounds that fast-forward has
skipped for every such lane are never fused.

Bit-exactness contract: a lane performs *exactly* the same structure
operations, in the same order, with the same counter updates as
``run_compiled`` -- final ``SimStats`` and metric snapshots are
bit-identical (enforced over the full Figure-14 grid by
``tests/frontend/test_batch_equivalence.py``).  A lane observed by
attribution, an event trace or a timeline recorder appends the oracle's
outcome row (and, for a timeline, stage-time row) per record and renders
the rows when it finishes, as ``run_compiled`` does; an unobserved lane
pays one ``None`` check per record.  So every harness cell runs here,
and ``run_compiled`` stays the oracle it is tested against.  Section 7.1
comparator cells run on the kernel too: the comparator's ``lookup``/
``record``/``on_btb_miss`` hooks are bound locals called at exactly the
oracle's call sites.
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
from repro.workloads import compiled as _compiled
from repro.workloads.compiled import KIND_BY_CODE, CompiledTrace

#: Records each lane advances per lockstep round.  Large enough to
#: amortise the per-chunk local bind/flush, small enough that lanes
#: sharing a trace revisit the same table rows while they are cached.
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


def _geometry(simulator) -> tuple:
    """The structure geometry a lane's fused rows depend on."""
    btb = simulator.bpu.btb
    config = simulator.config
    return (btb.infinite, btb.n_sets, btb.tag_bits,
            simulator.hierarchy.l1i.n_sets, config.decode_width,
            config.backend_effective_width)


def _lane_rows(table, geometry, start: int, stop: int) -> list:
    """Fused row tuples for records ``[start, stop)`` of one geometry.

    The kernel loop unpacks ONE tuple per record instead of indexing
    ~20 parallel columns: zip-fusing the table columns with the
    geometry-dependent derived columns (BTB set/tag fold, L1 set number
    of the branch / first / tail lines, decode cycles, retire delta)
    turns per-record address arithmetic into a single C-level
    ``UNPACK_SEQUENCE``.  Rows depend only on the trace and the
    structure geometry, so lanes stepping the same lockstep round share
    them: :class:`_Round` fuses a round's rows on first use and they go
    with the round, so only chunks some lane actually steps are ever
    built.  The derived columns come from ``numpy.frombuffer`` slices
    of the compiled int64 buffers when numpy is present, from the
    table's lists otherwise.
    """
    (btb_infinite, btb_n_sets, btb_tag_bits, l1_n_sets, decode_width,
     backend_width) = geometry
    line_size = table.line_size
    n = stop - start
    np = _compiled._np
    if np is not None:
        def i64(name):
            return np.frombuffer(table.int64[name], dtype=np.int64,
                                 count=n, offset=start * 8)
        branch_pc = i64("branch_pc")
        if btb_infinite:
            bidx = btag = [0] * n
        else:
            word = branch_pc >> 1
            bidx = (((word ^ (word >> 11) ^ (word >> 23))
                     % btb_n_sets).tolist())
            btag = ((word // btb_n_sets)
                    & ((1 << btb_tag_bits) - 1)).tolist()
        bls = ((branch_pc // line_size) % l1_n_sets).tolist()
        fls = ((i64("first_line") // line_size) % l1_n_sets).tolist()
        tail_line = ((branch_pc + i64("branch_len") - 1)
                     & ~(line_size - 1))
        tls = ((tail_line // line_size) % l1_n_sets).tolist()
        tl = tail_line.tolist()
        ni = i64("n_instr")
        dcyc = ((ni + (decode_width - 1)) // decode_width).tolist()
        nbw = (ni / backend_width).tolist()
    else:
        if btb_infinite:
            bidx = btag = [0] * n
        else:
            tag_mask = (1 << btb_tag_bits) - 1
            bidx = []
            btag = []
            for pc in table.branch_pc[start:stop]:
                word = pc >> 1
                bidx.append((word ^ (word >> 11) ^ (word >> 23))
                            % btb_n_sets)
                btag.append((word // btb_n_sets) & tag_mask)
        bls = [(line // line_size) % l1_n_sets
               for line in table.branch_line[start:stop]]
        fls = [(line // line_size) % l1_n_sets
               for line in table.first_line[start:stop]]
        mask = ~(line_size - 1)
        tl = [(pc - 1) & mask for pc in table.exit_pc[start:stop]]
        tls = [(line // line_size) % l1_n_sets for line in tl]
        n_instr = table.n_instr[start:stop]
        dcyc = [(count + decode_width - 1) // decode_width
                for count in n_instr]
        nbw = [count / backend_width for count in n_instr]
    return list(zip(table.kind[start:stop], table.kind_code[start:stop],
                    table.taken[start:stop], table.branch_pc[start:stop],
                    table.target[start:stop],
                    table.fallthrough[start:stop],
                    table.n_instr[start:stop],
                    table.branch_line[start:stop], bls, bidx, btag,
                    table.first_line[start:stop], fls,
                    table.n_lines[start:stop],
                    table.entry_offset[start:stop],
                    table.tail_aligned[start:stop],
                    table.exit_pc[start:stop], tl, tls, dcyc, nbw))


class _Round:
    """One lockstep round ``[start, stop)`` and the rows fused for it.

    Rows are keyed by (decode table, geometry): the first lane that
    steps records of the round fuses them, every later lane over the
    same table and geometry reuses them, and they go with the round.
    """

    __slots__ = ("start", "stop", "_rows")

    def __init__(self, start: int, stop: int):
        self.start = start
        self.stop = stop
        self._rows: dict = {}

    def rows(self, table, geometry) -> list:
        key = (table, geometry)
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = _lane_rows(
                table, geometry, self.start,
                min(self.stop, table.n_records))
        return rows


class _Lane:
    """One cell's replay state, advanced chunk by chunk."""

    def __init__(self, simulator: FrontEndSimulator, compiled, warmup: int,
                 ff=None):
        self.sim = simulator
        self.compiled = compiled
        self.table = compiled.decode_table(simulator.config.line_size)
        self.warmup = warmup
        self.n_records = self.table.n_records
        self.geometry = _geometry(simulator)

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

    def advance(self, round_: _Round) -> None:
        """Advance through this lane's records of one lockstep round,
        probing for skips.

        Chunks at or before a fast-forward skip's landing point are
        already accounted for and no-op (and never fuse rows); otherwise
        the segment splits at the controller's probe indices.  The
        kernel flushes every chunk-local accumulator at the end of each
        ``_advance``, so the state a probe digests is exact.
        """
        start = round_.start
        stop = min(round_.stop, self.n_records)
        if start < self._resume:
            start = self._resume
            if start >= stop:
                return
        ff = self.ff
        if ff is not None:
            while ff.active and start <= ff.next_probe < stop:
                probe = ff.next_probe
                if probe > start:
                    self._advance_segment(start, probe, round_)
                start = ff.on_probe(probe, self)
                self.processed = start
                self._resume = start
                if start >= stop:
                    return
        self._advance_segment(start, stop, round_)

    def _advance_segment(self, start: int, stop: int,
                         round_: _Round) -> None:
        """Advance through records [start, stop).

        Splits the segment at interval-window boundaries (emitting one
        telemetry row per crossing) and at the warmup boundary, so both
        transitions happen between kernel invocations -- the kernel then
        treats ``counting`` as segment-constant and the per-window rows
        cut at exactly the record indices ``run_compiled`` uses.
        """
        intervals = self.intervals
        if intervals is None:
            self._advance_warm(start, stop, round_)
            return
        size = intervals.interval_size
        cursor = start
        while cursor < stop:
            boundary = self.next_boundary
            if boundary <= stop:
                self._advance_warm(cursor, boundary, round_)
                intervals.boundary(
                    boundary, self.sim.stats, self.counted_instructions,
                    self.counted_blocks,
                    self.retire_free - self.cycles_at_count_start
                    if self.counting else 0.0)
                self.next_boundary = boundary + size
                cursor = boundary
            else:
                self._advance_warm(cursor, stop, round_)
                cursor = stop

    def _advance_warm(self, start: int, stop: int, round_: _Round) -> None:
        """One segment, split at the warmup boundary."""
        if not self.counting:
            warmup = self.warmup
            if start < warmup < stop:
                self._advance(start, warmup, round_)
                self._advance(warmup, stop, round_)
                return
        self._advance(start, stop, round_)

    # The kernel: one fully inlined replay of records [start, stop).
    # Every structure operation and counter update below replicates the
    # oracle (engine.run_compiled + bpu.process_fields +
    # skia.on_ftq_entry) operation-for-operation; only the dispatch
    # around them is flattened.
    def _advance(self, start: int, stop: int, round_: _Round) -> None:
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

        # Fused per-record rows of this round (see _lane_rows); segments
        # never cross a round, so the slice lies inside the fused chunk.
        chunk_rows = round_.rows(self.table, self.geometry)
        base = round_.start
        assert base <= start <= stop <= base + len(chunk_rows)
        rows = chunk_rows[start - base:stop - base]

        # Structures, locals-bound.
        l1i = hierarchy.l1i
        l1_sets = l1i._sets
        l1_n_sets = l1i.n_sets
        fill_miss = hierarchy.fill_after_l1_miss
        btb_infinite = btb.infinite
        btb_full = btb._full
        btb_sets = btb._sets
        btb_assoc = btb.assoc
        tage_update = bpu.tage.update
        loop = bpu.loop
        loop_on = loop is not None
        loop_predict = loop.predict if loop_on else None
        loop_update = loop.update if loop_on else None
        ittage_update = bpu.ittage.update
        ras_pop = bpu.ras.pop
        ras_push = bpu.ras.push
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
        is_call = _IS_CALL_BY_CODE
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

        for (kind, kcode, taken, branch_pc, target, fallthrough, n_instr,
             branch_line, bl_set, bidx, btag, first_line, fl_set, n_lines,
             entry_offset, tail_aligned, exit_pc, tail_line, tl_set,
             decode_cycles, retire_delta) in rows:
            # ----- IAG: allocate the FTQ entry ------------------------
            iag_t = iag_free
            while ftq_inflight and ftq_inflight[0] <= iag_t:
                ftq_popleft()
            if len(ftq_inflight) >= ftq_size:
                iag_t = ftq_popleft()

            # ----- BPU (bpu.process_fields, inlined) ------------------
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

            # Predictors (bpu._predict_*, inlined).  Whichever way the
            # decision tree below goes, the oracle consults the branch
            # kind's predictor exactly once -- in the case handler, or in
            # _train_side_predictors on the alias and SBB-wrong-target
            # paths -- and no lookup or comparator hook reads predictor
            # state, so the one call runs here, up front.
            if kind is k_cond:
                predicted = tage_update(branch_pc, taken)
                if loop_on:
                    lp = loop_predict(branch_pc)
                    loop_update(branch_pc, taken)
                    if lp is not None:
                        predicted = lp
                correct = predicted == taken
                if counting:
                    s_cond_predictions += 1
                    if not correct:
                        s_cond_mispredicts += 1
            elif kind is k_return:
                predicted = ras_pop()
                correct = predicted == target
                if counting:
                    s_ras_predictions += 1
                    if predicted is None:
                        s_ras_underflows += 1
                    if not correct:
                        s_ras_mispredicts += 1
            elif kind is not k_uncond and kind is not k_call:
                correct = ittage_update(branch_pc, target) == target
                if counting:
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
                        if predicted:
                            resteer = "exec"
                            cause = "cond_mispredict"
                            wrong_pc = target
                    elif predicted:
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
            if is_call[kcode]:
                ras_push(fallthrough)
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
        self.prev_taken = prev_taken
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
    decode table and the process-wide shadow-decode tables while hot.
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
        self._lanes.append(_Lane(simulator, compiled, warmup, ff=ff))

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
        if lanes:
            longest = max(lane.n_records for lane in lanes)
            chunk = self.chunk_records
            start = 0
            while start < longest:
                # One round: its fused rows live only while it runs.
                round_ = _Round(start, start + chunk)
                for lane in lanes:
                    if start < lane.n_records:
                        lane.advance(round_)
                start = round_.stop
        return [lane.finish() for lane in lanes]


def run_compiled_batched(simulator: FrontEndSimulator,
                         compiled: CompiledTrace,
                         warmup: int = 0) -> SimStats:
    """Single-cell convenience: the kernel still wins without lane
    sharing (inlined loop, decode table, local counters)."""
    batch = BatchedFrontEndSimulator()
    batch.add_lane(simulator, compiled, warmup=warmup)
    return batch.run()[0]
