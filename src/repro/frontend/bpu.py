"""Branch Prediction Unit.

Combines the BTB, the TAGE-lite conditional predictor, the ITTAGE-lite
indirect predictor, the return address stack, and (when Skia is enabled)
the parallel SBB lookup.  For each executed branch it determines how the
decoupled front-end would have speculated and, if wrongly, at which stage
the wrong path is detected:

* ``resteer=None``     -- speculation was correct; no bubble.
* ``resteer="decode"`` -- the decoder detects the problem (early resteer,
  Figure 7): an undetected *direct* branch whose target is computable at
  decode, an undetected return (RAS read at decode), a decode-time
  direction/target redirect, or a stale/aliased BTB target.
* ``resteer="exec"``   -- only execution can detect it: a wrong
  conditional direction or a wrong indirect/return target.

The BPU also *trains* all structures in commit order, which for a
sequential trace replay is equivalent to gem5's squash-and-repair.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.skia import Skia
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.config import FrontEndConfig
from repro.frontend.predictor import ITTageLite, LoopPredictor, TageLite
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.stats import SimStats
from repro.isa.branch import BranchKind
from repro.workloads.trace import BlockRecord


#: The resteer-cause vocabulary.  Causes partition resteers: every
#: prediction with ``resteer is not None`` carries exactly one cause, so
#: per-cause counts sum to ``decode_resteers + exec_resteers`` (the
#: ``resteer_causes_partition`` invariant).
RESTEER_CAUSES = (
    "btb_alias",           # partial-tag alias acted on another branch's entry
    "btb_stale_target",    # direct-branch entry holds an outdated target
    "cond_mispredict",     # direction predictor was wrong
    "ras_mispredict",      # RAS-supplied return target was wrong
    "indirect_mispredict",  # ITTAGE-supplied indirect target was wrong
    "sbb_wrong_target",    # SBB hit steered FDIP to the wrong place
    "undetected_branch",   # no structure knew the branch; decode found it
)


@dataclass
class Prediction:
    """How the front-end speculated on one branch."""

    btb_hit: bool
    sbb_hit: str | None       # "u" | "r" | None
    resteer: str | None       # None | "decode" | "exec"
    used_sbb: bool            # SBB supplied the correct next fetch address
    wrong_path_pc: int | None  # where wrong-path fetch streamed from
    resteer_cause: str | None = None  # one of RESTEER_CAUSES when resteering
    comparator_hit: bool = False  # a comparator design claimed the BTB miss


class BranchPredictionUnit:
    """The IAG's prediction stack (Figure 4), plus the optional SBB."""

    def __init__(self, config: FrontEndConfig, skia: Skia | None = None,
                 seed: int = 0, comparator=None):
        self.config = config
        self.btb = BranchTargetBuffer(
            entries=config.btb_entries, assoc=config.btb_assoc,
            tag_bits=config.btb_tag_bits, entry_bits=config.btb_entry_bits,
            infinite=config.btb_infinite)
        self.tage = TageLite(
            table_bits=config.tage_table_bits, tag_bits=config.tage_tag_bits,
            history_lengths=config.tage_history_lengths, seed=seed)
        self.ittage = ITTageLite(table_bits=config.ittage_table_bits)
        self.loop: LoopPredictor | None = None
        if config.use_loop_predictor:
            self.loop = LoopPredictor(entries=config.loop_predictor_entries)
        self.ras = ReturnAddressStack(depth=config.ras_depth)
        self.skia = skia
        # Optional Section 7.1 baseline implementing the
        # repro.frontend.comparators.Comparator protocol, probed in
        # parallel with the BTB like the SBB.
        self.comparator = comparator

    # ------------------------------------------------------------------

    def process(self, record: BlockRecord, branch_line_in_l1i: bool,
                stats: SimStats | None) -> Prediction:
        """Predict + train for one executed branch.

        ``branch_line_in_l1i`` is the L1-I residency of the branch's own
        line at lookup time (before this block's prefetch), feeding the
        paper's Figure 1/15 metric.
        """
        return self.process_fields(
            record.block_start, record.branch_pc, record.kind,
            record.taken, record.target, record.fallthrough,
            branch_line_in_l1i, stats)

    def process_fields(self, block_start: int, pc: int, kind: BranchKind,
                       taken: bool, target: int, fallthrough: int,
                       branch_line_in_l1i: bool,
                       stats: SimStats | None) -> Prediction:
        """:meth:`process` over unpacked record fields.

        The compiled-trace hot loop (``FrontEndSimulator.run_compiled``)
        reads flat columns and calls this directly, skipping
        ``BlockRecord`` construction; both entry points execute the same
        code, so object and compiled replays stay bit-identical.
        """
        entry = self.btb.lookup(pc)
        btb_hit = entry is not None
        comparator_entry = None
        sbb_result = None
        if not btb_hit:
            if self.comparator is not None:
                comparator_entry = self._comparator_lookup(
                    pc, branch_line_in_l1i)
            if comparator_entry is None and self.skia is not None:
                sbb_result = self.skia.lookup(pc)

        if stats is not None:
            stats.btb_lookups += 1
            stats.branches[kind] += 1
            if taken:
                stats.taken_branches += 1
            if not btb_hit:
                stats.btb_misses[kind] += 1
                if branch_line_in_l1i:
                    stats.btb_miss_l1i_hit += 1
                if comparator_entry is not None:
                    stats.comparator_hits += 1
                elif self.skia is not None:
                    # The SBB was probed (btb_miss the comparator did not
                    # claim): btb_miss == comparator_hit + sbb_hit + sbb_miss.
                    stats.sbb_lookups += 1
                    if sbb_result is None:
                        stats.sbb_misses += 1

        if btb_hit:
            prediction = self._process_btb_hit(pc, kind, taken, target,
                                               fallthrough, entry, stats)
        elif comparator_entry is not None:
            # A comparator hit behaves like a BTB hit (it supplies kind
            # and target), except btb_hit stays False for miss stats.
            prediction = self._process_btb_hit(pc, kind, taken, target,
                                               fallthrough, comparator_entry,
                                               stats)
            prediction = Prediction(False, None, prediction.resteer, False,
                                    prediction.wrong_path_pc,
                                    prediction.resteer_cause, True)
        elif sbb_result is not None:
            prediction = self._process_sbb_hit(pc, kind, taken, target,
                                               fallthrough, sbb_result, stats)
        else:
            if self.comparator is not None:
                self.comparator.on_btb_miss(block_start)
            prediction = self._process_undetected(pc, kind, taken, target,
                                                  fallthrough, stats)

        self._commit_updates(pc, kind, target, fallthrough, prediction,
                             stats)
        return prediction

    def _comparator_lookup(self, pc: int, branch_line_in_l1i: bool):
        """Probe the Section 7.1 baseline; AirBTB needs L1-I residency."""
        return self.comparator.lookup(pc, branch_line_in_l1i)

    # ------------------------------------------------------------------
    # Case: BTB hit (possibly a partial-tag alias)
    # ------------------------------------------------------------------

    def _process_btb_hit(self, pc: int, kind: BranchKind, taken: bool,
                         target: int, fallthrough: int, entry,
                         stats: SimStats | None) -> Prediction:
        if entry.kind is not kind:
            # Partial-tag alias: the BPU acted on another branch's entry.
            # The decoder notices the mismatch (wrong type/target) and
            # repairs early.
            if stats is not None:
                stats.btb_false_hits += 1
            self._train_side_predictors(pc, kind, taken, target, stats)
            if taken:
                return Prediction(True, None, "decode", False,
                                  fallthrough, "btb_alias")
            return Prediction(True, None, None, False, None)

        if kind is BranchKind.DIRECT_COND:
            predicted_taken = self._predict_cond(pc, taken, stats)
            if predicted_taken == taken:
                return Prediction(True, None, None, False, None)
            wrong = target if not taken else fallthrough
            return Prediction(True, None, "exec", False, wrong,
                              "cond_mispredict")

        if kind in (BranchKind.DIRECT_UNCOND, BranchKind.CALL):
            if entry.target == target:
                return Prediction(True, None, None, False, None)
            # Stale or aliased target; the decoder recomputes it.
            return Prediction(True, None, "decode", False, fallthrough,
                              "btb_stale_target")

        if kind is BranchKind.RETURN:
            correct = self._predict_return(target, stats)
            if correct:
                return Prediction(True, None, None, False, None)
            return Prediction(True, None, "exec", False, fallthrough,
                              "ras_mispredict")

        # Indirect jump/call: the BTB entry flags the branch; ITTAGE
        # provides the target.
        correct = self._predict_indirect(pc, target, stats)
        if correct:
            return Prediction(True, None, None, False, None)
        return Prediction(True, None, "exec", False, fallthrough,
                          "indirect_mispredict")

    # ------------------------------------------------------------------
    # Case: BTB miss, SBB hit (Skia's contribution)
    # ------------------------------------------------------------------

    def _process_sbb_hit(self, pc: int, kind: BranchKind, taken: bool,
                         target: int, fallthrough: int, sbb_result,
                         stats: SimStats | None) -> Prediction:
        which, entry = sbb_result
        if stats is not None:
            if which == "u":
                stats.sbb_hits_u += 1
            else:
                stats.sbb_hits_r += 1

        if which == "u":
            if (kind in (BranchKind.DIRECT_UNCOND, BranchKind.CALL)
                    and entry.payload == target):
                # FDIP speculated through the BTB miss: the whole point.
                return Prediction(False, "u", None, True, None)
            # Bogus or aliased entry steered FDIP wrong; decode repairs.
            if stats is not None:
                stats.sbb_wrong_target += 1
            self._train_side_predictors(pc, kind, taken, target, stats)
            return Prediction(False, "u", "decode", False, fallthrough,
                              "sbb_wrong_target")

        # R-SBB: claims "a return lives at pc"; the RAS provides the target.
        if kind is BranchKind.RETURN:
            correct = self._predict_return(target, stats)
            if correct:
                return Prediction(False, "r", None, True, None)
            return Prediction(False, "r", "exec", False, fallthrough,
                              "ras_mispredict")
        if stats is not None:
            stats.sbb_wrong_target += 1
        self._train_side_predictors(pc, kind, taken, target, stats)
        return Prediction(False, "r", "decode", False, fallthrough,
                          "sbb_wrong_target")

    # ------------------------------------------------------------------
    # Case: branch completely unknown to the BPU
    # ------------------------------------------------------------------

    def _process_undetected(self, pc: int, kind: BranchKind, taken: bool,
                            target: int, fallthrough: int,
                            stats: SimStats | None) -> Prediction:
        """No BTB or SBB entry: FDIP streams sequentially past the branch."""
        if kind is BranchKind.DIRECT_COND:
            # The decoder discovers the branch and asks the direction
            # predictor.  Correct-not-taken costs nothing (sequential was
            # right); predicted-taken redirects at decode; an undetected
            # taken branch resolves at execute.
            predicted_taken = self._predict_cond(pc, taken, stats)
            if not taken:
                # A predicted-taken decode redirect down the taken path is
                # itself wrong here; execution brings the flow back.
                if predicted_taken:
                    return Prediction(False, None, "exec", False,
                                      target, "cond_mispredict")
                return Prediction(False, None, None, False, None)
            if predicted_taken:
                return Prediction(False, None, "decode", False,
                                  fallthrough, "undetected_branch")
            return Prediction(False, None, "exec", False, fallthrough,
                              "cond_mispredict")

        if kind in (BranchKind.DIRECT_UNCOND, BranchKind.CALL):
            # Target computable at decode: early resteer.
            return Prediction(False, None, "decode", False, fallthrough,
                              "undetected_branch")

        if kind is BranchKind.RETURN:
            correct = self._predict_return(target, stats)
            if correct:
                return Prediction(False, None, "decode", False,
                                  fallthrough, "undetected_branch")
            return Prediction(False, None, "exec", False, fallthrough,
                              "ras_mispredict")

        # Indirect: discovered at decode; ITTAGE supplies a target there.
        correct = self._predict_indirect(pc, target, stats)
        if correct:
            return Prediction(False, None, "decode", False, fallthrough,
                              "undetected_branch")
        return Prediction(False, None, "exec", False, fallthrough,
                          "indirect_mispredict")

    # ------------------------------------------------------------------
    # Predictor helpers (each trains its structure exactly once)
    # ------------------------------------------------------------------

    def _predict_cond(self, pc: int, taken: bool,
                      stats: SimStats | None) -> bool:
        predicted = self.tage.update(pc, taken)
        if self.loop is not None:
            # A confident loop-trip prediction overrides TAGE (the L
            # component of TAGE-SC-L).
            loop_prediction = self.loop.predict(pc)
            self.loop.update(pc, taken)
            if loop_prediction is not None:
                predicted = loop_prediction
        if stats is not None:
            stats.cond_predictions += 1
            if predicted != taken:
                stats.cond_mispredicts += 1
        return predicted

    def _predict_indirect(self, pc: int, target: int,
                          stats: SimStats | None) -> bool:
        predicted = self.ittage.update(pc, target)
        correct = predicted == target
        if stats is not None:
            stats.indirect_predictions += 1
            if not correct:
                stats.indirect_mispredicts += 1
        return correct

    def _predict_return(self, target: int,
                        stats: SimStats | None) -> bool:
        predicted = self.ras.pop()
        correct = predicted == target
        if stats is not None:
            stats.ras_predictions += 1
            if predicted is None:
                # Pop on an empty stack: no target at all, necessarily a
                # mispredict (the ras_underflows_are_mispredicts invariant).
                stats.ras_underflows += 1
            if not correct:
                stats.ras_mispredicts += 1
        return correct

    def _train_side_predictors(self, pc: int, kind: BranchKind, taken: bool,
                               target: int,
                               stats: SimStats | None) -> None:
        """Keep predictor state consistent on bogus-redirect paths."""
        if kind is BranchKind.DIRECT_COND:
            self._predict_cond(pc, taken, stats)
        elif kind is BranchKind.RETURN:
            self._predict_return(target, stats)
        elif kind.is_indirect:
            self._predict_indirect(pc, target, stats)

    # ------------------------------------------------------------------
    # Commit-time updates
    # ------------------------------------------------------------------

    def _commit_updates(self, pc: int, kind: BranchKind, target: int,
                        fallthrough: int, prediction: Prediction,
                        stats: SimStats | None) -> None:
        # The decoder inserts every decoded branch into the BTB.  Static
        # targets for direct branches; last target for indirect; returns
        # carry no target (the RAS provides it).
        btb_target = None
        if kind.is_direct or kind.is_indirect:
            btb_target = target
        self.btb.insert(pc, kind, btb_target)

        if kind.is_call:
            self.ras.push(fallthrough)

        if self.comparator is not None:
            self.comparator.record(pc, kind, btb_target)

        if prediction.used_sbb and self.skia is not None:
            self.skia.mark_retired(pc, prediction.sbb_hit, stats)
