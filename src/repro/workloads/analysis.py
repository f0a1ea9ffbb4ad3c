"""Workload characterisation.

Quantifies the properties the paper's argument rests on, directly from a
program + trace: branch-type mix, dynamic footprint, branch reuse
distances (the "cold branch" evidence), and shadow-region geometry (how
many static branches live in head/tail shadow positions of their lines).
Used for calibration reports and by the workload-characterisation tests.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Sequence

from repro.isa.branch import KIND_BY_CODE, SBB_ELIGIBLE, BranchKind
from repro.workloads.compiled import CompiledTrace
from repro.workloads.program import LINE_SIZE, Program


@dataclass
class ReuseProfile:
    """Branch reuse distances, measured in distinct branch PCs."""

    median: float
    p90: float
    over_8k_fraction: float  # recurrences beyond an 8K-entry BTB's reach
    samples: int


def branch_reuse_profile(branch_pcs: Sequence[int],
                         btb_entries: int = 8192) -> ReuseProfile:
    """Stack-distance-style reuse profile of the branch-PC stream.

    A branch whose reuse distance (distinct branch PCs since its last
    execution) exceeds the BTB capacity is a *cold* recurrence -- the
    population Skia targets.
    """
    last_seen: dict[int, int] = {}
    # Approximate distinct-count via timestamps + a Fenwick tree over
    # positions of most-recent occurrences (exact stack distances).
    positions: list[int] = []
    tree: list[int] = [0] * (len(branch_pcs) + 1)

    def tree_add(index: int, delta: int) -> None:
        index += 1
        while index < len(tree):
            tree[index] += delta
            index += index & -index

    def tree_sum(index: int) -> int:
        index += 1
        total = 0
        while index > 0:
            total += tree[index]
            index -= index & -index
        return total

    distances: list[int] = []
    for position, pc in enumerate(branch_pcs):
        previous = last_seen.get(pc)
        if previous is not None:
            distinct_since = tree_sum(position - 1) - tree_sum(previous)
            distances.append(distinct_since)
            tree_add(previous, -1)
        tree_add(position, 1)
        last_seen[pc] = position
        positions.append(position)

    if not distances:
        return ReuseProfile(0.0, 0.0, 0.0, 0)
    distances.sort()
    count = len(distances)
    return ReuseProfile(
        median=distances[count // 2],
        p90=distances[int(count * 0.9)],
        over_8k_fraction=sum(d > btb_entries for d in distances) / count,
        samples=count,
    )


@dataclass
class ShadowGeometry:
    """Static shadow-position census over the program image.

    For each basic block's terminator, classify where the *next* static
    branch bytes sit relative to the block's line usage: branches after
    a block's (potentially taken) exit within the same line are tail-
    shadow candidates; branches before block entry offsets are head-
    shadow candidates.
    """

    total_branches: int = 0
    tail_shadow_candidates: int = 0
    head_shadow_candidates: int = 0
    eligible_branches: int = 0  # DirectUncond/Call/Return

    @property
    def tail_fraction(self) -> float:
        return (self.tail_shadow_candidates / self.total_branches
                if self.total_branches else 0.0)

    @property
    def eligible_fraction(self) -> float:
        return (self.eligible_branches / self.total_branches
                if self.total_branches else 0.0)


#: Position labels indexed by ``2 * head + tail``.
_LABELS = ("none", "tail", "head", "head+tail")


@dataclass(frozen=True)
class ShadowPosition:
    """One static branch's head/tail shadow candidacy.

    ``tail`` -- the branch sits past an earlier block's exit within the
    same line (tail-shadow bytes a taken entry into the line exposes);
    ``head`` -- a later block's entry within the same line lies past the
    branch's end (head-shadow bytes a mid-line entry exposes).
    """

    pc: int
    kind: BranchKind
    head: bool
    tail: bool
    eligible: bool  # DirectUncond/Call/Return (SBB-capturable)

    @property
    def label(self) -> str:
        """Compact position label for attribution reports."""
        return _LABELS[2 * self.head + self.tail]


def _census(program: Program) -> list[tuple[int, BranchKind, bool, bool]]:
    """``(pc, kind, head, tail)`` per basic block, in start-address
    order, duplicates kept."""
    blocks = sorted((block for function in program.functions
                     for block in function.blocks),
                    key=attrgetter("start_pc"))
    terminators = [block.terminator for block in blocks]
    exits = [terminator.pc + len(terminator.encoding)
             for terminator in terminators]
    entries = [block.start_pc for block in blocks]
    exit_count = len(exits)
    exit_index = 0
    census = []
    for terminator, end in zip(terminators, exits):
        pc = terminator.pc
        line = pc & ~(LINE_SIZE - 1)
        # Tail candidate: one of the last 8 block exits at or before
        # this branch lies in its line.
        while exit_index < exit_count and exits[exit_index] <= pc:
            exit_index += 1
        tail = False
        for earlier_exit in exits[max(0, exit_index - 8):exit_index]:
            if line <= earlier_exit <= pc:
                tail = True
                break
        # Head candidate: some block entry in the same line lies after
        # this branch's end.  ``entries`` is sorted and ``end > line``,
        # so "any entry in [end, line_end)" is a bisect range check.
        head = (bisect_left(entries, end)
                < bisect_left(entries, line + LINE_SIZE))
        census.append((pc, terminator.kind, head, tail))
    return census


def shadow_positions(program: Program) -> list[ShadowPosition]:
    """Per-terminator shadow census, one entry per basic block.

    The list form preserves duplicate terminator PCs exactly as the
    per-block loop sees them, so :func:`shadow_geometry` aggregates to
    identical counts; use :func:`shadow_position_map` for keyed lookup.
    """
    return [ShadowPosition(pc=pc, kind=kind, head=head, tail=tail,
                           eligible=kind in SBB_ELIGIBLE)
            for pc, kind, head, tail in _census(program)]


def shadow_position_map(program: Program) -> dict[int, ShadowPosition]:
    """Shadow positions keyed by branch PC."""
    return {position.pc: position
            for position in shadow_positions(program)}


def shadow_labels(program: Program) -> dict[int, str]:
    """Shadow position label keyed by branch PC.

    Attribution reads it through :attr:`Program.shadow_labels`, which
    computes it once per program.
    """
    return {pc: _LABELS[2 * head + tail]
            for pc, _, head, tail in _census(program)}


def shadow_geometry(program: Program) -> ShadowGeometry:
    geometry = ShadowGeometry()
    for _, kind, head, tail in _census(program):
        geometry.total_branches += 1
        geometry.eligible_branches += kind in SBB_ELIGIBLE
        geometry.tail_shadow_candidates += tail
        geometry.head_shadow_candidates += head
    return geometry


@dataclass
class WorkloadReport:
    """One-stop characterisation used by EXPERIMENTS.md."""

    name: str
    footprint_bytes: int
    static_branches: Counter = field(default_factory=Counter)
    dynamic_mix: Counter = field(default_factory=Counter)
    reuse: ReuseProfile | None = None

    def render(self) -> str:
        lines = [
            f"workload {self.name}: footprint {self.footprint_bytes // 1024}KB,"
            f" static branches {sum(self.static_branches.values())}",
        ]
        total = sum(self.dynamic_mix.values()) or 1
        mix = ", ".join(
            f"{kind.value}={count / total:.1%}"
            for kind, count in self.dynamic_mix.most_common())
        lines.append(f"  dynamic mix: {mix}")
        if self.reuse is not None:
            lines.append(
                f"  branch reuse: median={self.reuse.median:.0f} "
                f"p90={self.reuse.p90:.0f} "
                f"beyond-8K={self.reuse.over_8k_fraction:.1%}")
        return "\n".join(lines)


def characterise(program: Program, trace: CompiledTrace) -> WorkloadReport:
    report = WorkloadReport(name=program.name,
                            footprint_bytes=len(program.image))
    for block in program.iter_blocks():
        report.static_branches[block.terminator.kind] += 1
    # Counted per code, in first-execution order, then named.
    for code, count in Counter(trace.column("kind")).items():
        report.dynamic_mix[KIND_BY_CODE[code]] += count
    report.reuse = branch_reuse_profile(trace.column("branch_pc"))
    return report
