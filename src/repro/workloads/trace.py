"""Control-flow trace generation.

A trace is the *correct-path oracle*: the sequence of basic blocks the
program actually executes, with each block's terminating branch outcome.
The front-end simulator replays it, making its own (possibly wrong)
predictions and paying for them; an execution-driven gem5 would discover
the same stream by executing instructions, so replaying it is equivalent
for front-end studies as long as wrong-path *fetch* effects are modelled
(the simulator does model them).

Traces are deterministic in (program, seed): the stochastic controller
that picks handler dispatches, loop trips and rare paths is seeded, so
every simulator configuration replays an identical stream.

The generator emits a *block-index stream*: the executed blocks'
indices into the program's :class:`~repro.workloads.program.BlockColumns`
(built once per generator) plus one taken bit per record.  Every other
per-record field is a constant of the block or follows from its
successor, so :meth:`CompiledTrace.from_stream` compiles the stream into
a table of the executed blocks plus per-record outcomes.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right

from repro.isa.branch import CODE_BY_KIND, BranchKind
from repro.workloads.program import BlockColumns, Program

__all__ = ["TraceGenerator"]

_COND = CODE_BY_KIND[BranchKind.DIRECT_COND]
_UNCOND = CODE_BY_KIND[BranchKind.DIRECT_UNCOND]
_CALL = CODE_BY_KIND[BranchKind.CALL]
_RETURN = CODE_BY_KIND[BranchKind.RETURN]
_INDIRECT = CODE_BY_KIND[BranchKind.INDIRECT_UNCOND]
_INDIRECT_CALL = CODE_BY_KIND[BranchKind.INDIRECT_CALL]


class TraceGenerator:
    """Replays a program's CFG with a seeded stochastic controller.

    ``dispatch_run_range`` models request batching: an indirect branch
    repeats its chosen target for a sampled run length before re-sampling,
    as commercial dispatch loops do (the last-target predictor then covers
    the body of each run and only the switches mispredict).
    """

    def __init__(self, program: Program, seed: int = 0,
                 dispatch_run_range: tuple[int, int] = (2, 12)):
        self.program = program
        self.seed = seed
        self.dispatch_run_range = dispatch_run_range
        #: The program's per-block columns, which streams index.
        self.columns = BlockColumns(program)
        #: The controller's RNG as the last :meth:`stream` left it.
        self.rng: random.Random | None = None

    def stream(self, n_records: int) -> tuple[array, bytearray]:
        """The first ``n_records`` records as a block-index stream.

        Returns ``(blocks, taken)``: an ``array('q')`` of
        ``n_records + 1`` block indices starting at the entry block --
        record ``i`` executes ``blocks[i]`` and transfers control to
        ``blocks[i + 1]`` -- and a ``bytearray`` of one taken bit per
        record.
        """
        columns = self.columns
        blocks = columns.blocks
        kinds = columns.kind.tolist()
        taken_succ = columns.taken_succ.tolist()
        fallthrough_succ = columns.fallthrough_succ.tolist()
        indirect = columns.indirect
        entry = columns.entry
        rng = self.rng = random.Random(self.seed ^ 0x5BB)
        draw = rng.random
        randint = rng.randint
        run_lo, run_hi = self.dispatch_run_range
        # Call stack of return-block indices; a return that would
        # underflow (cannot happen with a well-formed main loop)
        # restarts at the entry.
        stack: list[int] = []
        push = stack.append
        pop = stack.pop
        # Deterministic direction state per conditional block: remaining
        # back-edge takes of a loop, or a pattern's visit counter.
        loop_state: dict[int, int] = {}
        # Indirect runs: current target and remaining repeats per block.
        run_target: dict[int, int] = {}
        run_left: dict[int, int] = {}

        out = array("q", [entry])
        append = out.append
        taken = bytearray(b"\x01") * n_records
        block = entry
        for index in range(n_records):
            kind = kinds[block]
            if kind == _COND:
                info = blocks[block]
                trip = info.loop_trip
                if trip is not None:
                    # Back-edge: taken (trip - 1) times, then fall through.
                    remaining = loop_state.get(block)
                    if remaining is None:
                        remaining = trip - 1
                    went = remaining > 0
                    loop_state[block] = remaining - 1 if went else trip - 1
                elif info.pattern_bits is not None:
                    # Periodic direction pattern (deterministic).
                    visit = loop_state.get(block, 0)
                    went = (info.pattern_bits >> visit) & 1
                    loop_state[block] = (visit + 1) % info.pattern_len
                else:
                    went = draw() < info.cond_taken_bias
                if went:
                    block = taken_succ[block]
                else:
                    taken[index] = 0
                    block = fallthrough_succ[block]
            elif kind == _UNCOND:
                block = taken_succ[block]
            elif kind == _CALL:
                push(fallthrough_succ[block])
                block = taken_succ[block]
            elif kind == _RETURN:
                block = pop() if stack else entry
            elif kind == _INDIRECT or kind == _INDIRECT_CALL:
                if kind == _INDIRECT_CALL:
                    push(fallthrough_succ[block])
                left = run_left.get(block, 0)
                if left > 0:
                    # Run-length-sticky choice (request batching).
                    run_left[block] = left - 1
                    block = run_target[block]
                else:
                    targets, cumulative = indirect[block]
                    chosen = targets[bisect_right(
                        cumulative, draw() * cumulative[-1])]
                    run_target[block] = chosen
                    run_left[block] = randint(run_lo, run_hi) - 1
                    block = chosen
            else:  # pragma: no cover - blocks always end in a branch
                raise AssertionError(f"non-branch terminator {kind}")
            append(block)
        return out, taken
