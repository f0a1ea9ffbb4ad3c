"""Program data model: functions, basic blocks, and the laid-out image.

A :class:`Program` owns the ground truth that only the *workload* may know:
where every instruction starts, what every branch's static target is, and
which block follows which.  The front-end simulator never reads this
directly -- it sees only the byte image (for shadow decoding) and the
dynamic trace (for the correct-path oracle); ground truth is used for
layout, trace generation and for *auditing* (e.g. counting how many SBB
insertions were bogus).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Sequence

from repro.isa.branch import CODE_BY_KIND, BranchKind
from repro.isa.instruction import Instruction

#: Instruction-cache line size used throughout (Table 1: 64B lines).
LINE_SIZE = 64


def line_of(pc: int) -> int:
    """Cache-line address (line-aligned byte address) containing ``pc``."""
    return pc & ~(LINE_SIZE - 1)


@dataclass(slots=True)
class BasicBlock:
    """A straight-line run of instructions ended by exactly one branch.

    ``label`` is a program-unique id used as a patch target before layout.
    The non-branch instructions before the branch are one immutable byte
    run, ``body``, with one byte per instruction in ``body_lengths``
    (fillers are never patched, so they need no objects); the branch is
    ``terminator``, the block's only :class:`Instruction`.
    ``fallthrough_label`` is the block reached when a conditional
    terminator is not taken (always the physically-next block of the same
    function), or the block that a ``call`` returns into.
    ``indirect_targets`` lists (label, weight) candidates for indirect
    terminators; the trace generator samples among them.
    """

    label: int
    body: bytes = b""
    body_lengths: bytes = b""
    terminator: Instruction | None = None
    fallthrough_label: int | None = None
    indirect_targets: Sequence[tuple[int, float]] = ()
    cond_taken_bias: float = 0.5
    loop_trip: int | None = None  # deterministic trip count for back-edges
    # Periodic direction pattern: bit (visit % pattern_len) of pattern_bits
    # decides taken.  Deterministic (so TAGE can learn it) yet path-diverse
    # across visits, which moves line entry/exit points around -- the
    # source of the paper's shadow-region coverage.
    pattern_bits: int | None = None
    pattern_len: int = 0
    start_pc: int = -1

    @property
    def size(self) -> int:
        return len(self.body) + len(self.terminator.encoding)

    @property
    def end_pc(self) -> int:
        """One past the last byte (valid only after layout)."""
        return self.start_pc + self.size

    @property
    def num_instructions(self) -> int:
        return len(self.body_lengths) + 1

    def instruction_pcs(self) -> Iterator[int]:
        """Start address of every instruction, fillers then terminator
        (valid only after layout)."""
        return accumulate(self.body_lengths, initial=self.start_pc)


@dataclass(slots=True)
class Function:
    """An ordered list of blocks; ``blocks[0]`` is the entry."""

    name: str
    blocks: list[BasicBlock] = field(default_factory=list)
    hot: bool = False
    call_count: int = 0  # filled by profiling for the BOLT pass

    @property
    def entry_label(self) -> int:
        return self.blocks[0].label

    @property
    def size(self) -> int:
        return sum(block.size for block in self.blocks)


class BlockColumns:
    """A laid-out program's per-block constants, as columns.

    Block ``i`` is the ``i``-th block of :meth:`Program.iter_blocks`
    (layout order); a trace is a stream of these indices.  The
    ``array('q')`` columns are what a compiled trace gathers by index:

    ``start_pc``, ``n_instr``, ``branch_pc``, ``branch_len``
        the block's address, instruction count and terminator;
    ``kind``
        the terminator's kind code (``repro.isa.branch.CODE_BY_KIND``);
    ``cond_target``
        the start of a conditional terminator's static target block
        (its ``target`` whether taken or not), -1 for other kinds.

    What the trace generator walks: ``taken_succ`` and
    ``fallthrough_succ``, the block a direct terminator jumps or calls
    to and the not-taken or return block (-1 where there is none);
    ``indirect``, each indirect terminator's candidate blocks and
    cumulative weights; ``entry``, the entry block; and ``blocks``.

    A :class:`~repro.workloads.trace.TraceGenerator` builds one and
    compiles its traces from it.  The program does not memoise it: at
    about 1.5 MB for an 18k-block program it would live as long as the
    program, while a program rarely gets more than one trace.
    """

    __slots__ = ("blocks", "entry", "start_pc", "n_instr", "branch_pc",
                 "branch_len", "kind", "cond_target", "taken_succ",
                 "fallthrough_succ", "indirect")

    def __init__(self, program: "Program"):
        self.blocks = blocks = list(program.iter_blocks())
        index_of = {block.label: index for index, block in enumerate(blocks)}
        index_of[None] = -1  # no target or fall-through label
        self.entry = index_of[program.entry_label]
        terminators = [block.terminator for block in blocks]
        self.start_pc = start = array("q", [block.start_pc
                                            for block in blocks])
        self.n_instr = array("q", [block.num_instructions
                                   for block in blocks])
        self.branch_pc = array("q", [ins.pc for ins in terminators])
        self.branch_len = array("q", [ins.length for ins in terminators])
        self.kind = kind = array("q", [CODE_BY_KIND[ins.kind]
                                       for ins in terminators])
        self.taken_succ = taken_succ = array("q", [
            index_of[ins.target_label] for ins in terminators])
        self.fallthrough_succ = array("q", [
            index_of[block.fallthrough_label] for block in blocks])
        cond = CODE_BY_KIND[BranchKind.DIRECT_COND]
        self.cond_target = array("q", [
            start[succ] if code == cond else -1
            for succ, code in zip(taken_succ, kind)])
        self.indirect = {
            index: ([index_of[label] for label, _ in block.indirect_targets],
                    list(accumulate(weight for _, weight
                                    in block.indirect_targets)))
            for index, block in enumerate(blocks) if block.indirect_targets}


class Program:
    """A laid-out program: image bytes + CFG + ground-truth maps."""

    def __init__(self, functions: list[Function], image: bytes,
                 base_address: int, entry_label: int,
                 name: str = "program"):
        self.name = name
        self.functions = functions
        self.image = image
        self.base_address = base_address
        self.entry_label = entry_label

        self.block_by_label: dict[int, BasicBlock] = {}
        self.function_of_label: dict[int, Function] = {}
        # Ground-truth instruction boundaries.
        self.instruction_starts: set[int] = set()
        for function in functions:
            for block in function.blocks:
                if block.label in self.block_by_label:
                    raise ValueError(f"duplicate block label {block.label}")
                self.block_by_label[block.label] = block
                self.function_of_label[block.label] = function
                self.instruction_starts.update(block.instruction_pcs())

    @property
    def size(self) -> int:
        return len(self.image)

    @property
    def entry_block(self) -> BasicBlock:
        return self.block_by_label[self.entry_label]

    def block(self, label: int) -> BasicBlock:
        return self.block_by_label[label]

    def bytes_at(self, pc: int, length: int) -> bytes:
        offset = pc - self.base_address
        return self.image[offset:offset + length]

    def is_instruction_start(self, pc: int) -> bool:
        """Ground-truth boundary check (used for bogus-branch auditing)."""
        return pc in self.instruction_starts

    @cached_property
    def shadow_labels(self) -> dict[int, str]:
        """Static head/tail shadow label by branch PC, computed once
        (a laid-out program never changes) and shared, read-only, by
        every attribution aggregator over this program."""
        from repro.workloads.analysis import shadow_labels
        return shadow_labels(self)

    # ------------------------------------------------------------------
    # Introspection helpers used by tests and reports.
    # ------------------------------------------------------------------

    def iter_blocks(self):
        for function in self.functions:
            yield from function.blocks

    def static_branch_counts(self) -> dict[BranchKind, int]:
        counts: dict[BranchKind, int] = {}
        for block in self.iter_blocks():
            kind = block.terminator.kind
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def footprint_lines(self) -> int:
        """Number of distinct cache lines the image spans."""
        first = line_of(self.base_address)
        last = line_of(self.base_address + len(self.image) - 1)
        return (last - first) // LINE_SIZE + 1

    def describe(self) -> str:
        counts = self.static_branch_counts()
        branch_text = ", ".join(
            f"{kind.value}={count}" for kind, count in sorted(
                counts.items(), key=lambda item: item[0].value)
        )
        return (
            f"Program {self.name}: {len(self.functions)} functions, "
            f"{sum(len(f.blocks) for f in self.functions)} blocks, "
            f"{len(self.image)} bytes ({self.footprint_lines()} lines); "
            f"terminators: {branch_text}"
        )
