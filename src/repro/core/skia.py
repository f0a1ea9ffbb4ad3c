"""Skia integration component (Figure 11).

Owns the Shadow Branch Decoder and the Shadow Branch Buffer and exposes
the two hooks the front-end uses:

* :meth:`on_ftq_entry` -- invoked when an FTQ entry's prefetch completes:
  head-decodes the entry line (when the entry was reached via a taken
  branch and starts mid-line) and tail-decodes the exit line (when the
  entry ends in a taken branch that leaves the line mid-way), inserting
  discovered branches into the SBB.  Decoding is off the critical path
  (Section 3.2 footnote), so it costs no pipeline cycles.
* :meth:`lookup` -- probed in parallel with the BTB.

When a ground-truth oracle is provided (the synthetic programs know their
instruction boundaries), insertions whose PC is not a real instruction
start are counted as *bogus* -- the Section 3.2.2 audit; the simulator
itself never consults the oracle for prediction.
"""

from __future__ import annotations

from typing import Callable

from repro.core.sbb import SBBEntry, ShadowBranchBuffer
from repro.core.sbd import (
    HeadDecodeResult,
    ShadowBranch,
    ShadowBranchDecoder,
    TailDecodeResult,
)
from repro.frontend.config import SkiaConfig
from repro.frontend.stats import SimStats
from repro.isa.branch import BranchKind


class Skia:
    """Shadow branch decoding + buffering, wired for the simulator."""

    def __init__(self, image: bytes, base_address: int, config: SkiaConfig,
                 line_size: int = 64,
                 boundary_oracle: Callable[[int], bool] | None = None):
        if not config.enabled:
            raise ValueError("Skia constructed with a disabled config")
        self.config = config
        self.line_size = line_size
        self.sbd = ShadowBranchDecoder(image, base_address, config,
                                       line_size=line_size)
        self.sbb = ShadowBranchBuffer(config)
        self.boundary_oracle = boundary_oracle

    # ------------------------------------------------------------------
    # Fill path (FTQ-entry prefetch completion)
    # ------------------------------------------------------------------

    def on_ftq_entry(self, entry_pc: int, entered_by_taken_branch: bool,
                     exit_pc: int | None, line_present: Callable[[int], bool],
                     stats: SimStats | None = None
                     ) -> tuple[HeadDecodeResult | None,
                                TailDecodeResult | None]:
        """Run the SBD for one FTQ entry; ``(head, tail)`` results.

        ``entry_pc`` is the block start; ``exit_pc`` is the first byte
        after the block's taken branch (None when the block falls
        through).  ``line_present`` gates decoding on L1-I residency, as
        the paper requires.  ``head``/``tail`` are the shared decode
        results, ``None`` when that decode did not run (a tail decode
        from a line-aligned exit is structurally empty and not reported).
        """
        head = tail = None
        if (self.config.decode_heads and entered_by_taken_branch
                and entry_pc % self.line_size != 0
                and line_present(entry_pc)):
            head = self.sbd.decode_head(entry_pc)
            if stats is not None:
                stats.sbd_head_decodes += 1
                if head.discarded:
                    stats.sbd_head_discarded += 1
            self._insert_all(head.branches, stats)

        if (self.config.decode_tails and exit_pc is not None
                and line_present(exit_pc - 1)):
            result = self.sbd.decode_tail(exit_pc)
            if (exit_pc % self.line_size) != 0:
                tail = result
                if stats is not None:
                    stats.sbd_tail_decodes += 1
            self._insert_all(result.branches, stats)
        return head, tail

    def _insert_all(self, branches: list[ShadowBranch],
                    stats: SimStats | None) -> None:
        for branch in branches:
            if branch.kind is BranchKind.RETURN:
                self.sbb.insert_return(branch.pc, self.line_size)
                if stats is not None:
                    stats.sbb_insertions_r += 1
            else:
                if branch.target is None:  # pragma: no cover - direct only
                    continue
                self.sbb.insert_unconditional(branch.pc, branch.target)
                if stats is not None:
                    stats.sbb_insertions_u += 1
            if (stats is not None and self.boundary_oracle is not None
                    and not self.boundary_oracle(branch.pc)):
                stats.sbb_bogus_insertions += 1

    # ------------------------------------------------------------------
    # Lookup path (parallel with the BTB)
    # ------------------------------------------------------------------

    def lookup(self, pc: int) -> tuple[str, SBBEntry] | None:
        return self.sbb.lookup(pc)

    def mark_retired(self, pc: int, which: str,
                     stats: SimStats | None = None) -> None:
        if self.sbb.mark_retired(pc, which) and stats is not None:
            stats.sbb_retired_marks += 1

    def register_metrics(self, registry) -> None:
        """Register the SBB halves."""
        self.sbb.register_metrics(registry.scope("sbb"))
