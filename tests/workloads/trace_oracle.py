"""The record-at-a-time trace generator, kept as an oracle.

``OracleTraceGenerator.iter_records`` is the generator body that built
one :class:`BlockRecord` per executed block, kept verbatim except that
it leaves its RNG on ``self.rng`` so a test can compare the final
Mersenne-Twister state.  ``test_trace_stream.py`` checks the
block-index stream against it: the same records, the same draws.
"""

from __future__ import annotations

import bisect
import itertools
import random

from repro.isa.branch import BranchKind
from repro.workloads.program import BasicBlock, Program
from tests.workloads.records import BlockRecord


class _IndirectChooser:
    """Weighted sampling of indirect targets with cached cumulative weights."""

    def __init__(self, block: BasicBlock, resolve):
        if not block.indirect_targets:
            raise ValueError(f"block {block.label} has no indirect targets")
        labels = [label for label, _ in block.indirect_targets]
        weights = [weight for _, weight in block.indirect_targets]
        self.targets = [resolve(label) for label in labels]
        self.cumulative = list(itertools.accumulate(weights))

    def choose(self, rng: random.Random) -> "BasicBlock":
        point = rng.random() * self.cumulative[-1]
        return self.targets[bisect.bisect_right(self.cumulative, point)]


class OracleTraceGenerator:
    """Replays a program's CFG with a seeded stochastic controller."""

    def __init__(self, program: Program, seed: int = 0,
                 dispatch_run_range: tuple[int, int] = (2, 12)):
        self.program = program
        self.seed = seed
        self.dispatch_run_range = dispatch_run_range
        self._choosers: dict[int, _IndirectChooser] = {}
        self.rng: random.Random | None = None

    def _chooser(self, block: BasicBlock) -> _IndirectChooser:
        chooser = self._choosers.get(block.label)
        if chooser is None:
            chooser = _IndirectChooser(block, self.program.block)
            self._choosers[block.label] = chooser
        return chooser

    def _choose_indirect(self, block: BasicBlock,
                         run_state: dict[int, tuple[BasicBlock, int]],
                         rng: random.Random, run_lo: int,
                         run_hi: int) -> BasicBlock:
        """Run-length-sticky weighted choice (request batching)."""
        state = run_state.get(block.label)
        if state is not None:
            target, remaining = state
            if remaining > 0:
                run_state[block.label] = (target, remaining - 1)
                return target
        target = self._chooser(block).choose(rng)
        run_state[block.label] = (target, rng.randint(run_lo, run_hi) - 1)
        return target

    def iter_records(self, n_records: int | None = None):
        """Yield :class:`BlockRecord` starting from the program entry.

        The generated stream is infinite when ``n_records`` is None; the
        caller decides how much to consume.
        """
        program = self.program
        rng = random.Random(self.seed ^ 0x5BB)
        self.rng = rng
        block = program.entry_block
        # Call stack of (return_block, return_pc); rets that would
        # underflow (cannot happen with a well-formed main loop) restart
        # at the entry.
        stack: list[tuple[BasicBlock, int]] = []
        # Deterministic loop counters: remaining back-edge takes per block.
        loop_state: dict[int, int] = {}
        # Indirect run state: (current_target, remaining) per block label.
        run_state: dict[int, tuple[BasicBlock, int]] = {}
        run_lo, run_hi = self.dispatch_run_range
        emitted = 0

        while n_records is None or emitted < n_records:
            terminator = block.terminator
            branch_pc = terminator.pc
            branch_end = branch_pc + terminator.length
            kind = terminator.kind
            taken = True

            if kind is BranchKind.DIRECT_COND:
                if block.loop_trip is not None:
                    # Back-edge: taken (trip - 1) times, then fall through.
                    remaining = loop_state.get(block.label)
                    if remaining is None:
                        remaining = block.loop_trip - 1
                    taken = remaining > 0
                    loop_state[block.label] = (
                        remaining - 1 if taken else block.loop_trip - 1)
                elif block.pattern_bits is not None:
                    # Periodic direction pattern (deterministic).
                    visit = loop_state.get(block.label, 0)
                    taken = bool((block.pattern_bits >> visit) & 1)
                    loop_state[block.label] = (visit + 1) % block.pattern_len
                else:
                    taken = rng.random() < block.cond_taken_bias
                target_block = program.block(terminator.target_label)
                if taken:
                    next_block = target_block
                else:
                    next_block = program.block(block.fallthrough_label)
                actual_target = target_block.start_pc
            elif kind is BranchKind.DIRECT_UNCOND:
                next_block = program.block(terminator.target_label)
                actual_target = next_block.start_pc
            elif kind is BranchKind.CALL:
                next_block = program.block(terminator.target_label)
                actual_target = next_block.start_pc
                return_block = program.block(block.fallthrough_label)
                stack.append((return_block, branch_end))
            elif kind is BranchKind.INDIRECT_CALL:
                next_block = self._choose_indirect(block, run_state, rng,
                                                   run_lo, run_hi)
                actual_target = next_block.start_pc
                return_block = program.block(block.fallthrough_label)
                stack.append((return_block, branch_end))
            elif kind is BranchKind.INDIRECT_UNCOND:
                next_block = self._choose_indirect(block, run_state, rng,
                                                   run_lo, run_hi)
                actual_target = next_block.start_pc
            elif kind is BranchKind.RETURN:
                if stack:
                    next_block, _ = stack.pop()
                else:  # pragma: no cover - main never returns
                    next_block = program.entry_block
                actual_target = next_block.start_pc
            else:  # pragma: no cover - blocks always end in a branch
                raise AssertionError(f"non-branch terminator {kind}")

            yield BlockRecord(
                block_start=block.start_pc,
                n_instr=block.num_instructions,
                branch_pc=branch_pc,
                branch_len=terminator.length,
                kind=kind,
                taken=taken,
                target=actual_target,
                fallthrough=branch_end,
                next_pc=next_block.start_pc if taken else branch_end,
            )
            emitted += 1
            block = next_block

    def records(self, n_records: int) -> list[BlockRecord]:
        """Materialise ``n_records`` records (deterministic per seed)."""
        return list(self.iter_records(n_records))
