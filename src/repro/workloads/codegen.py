"""Synthetic program generator.

Builds programs with the control-flow structure of the paper's server
workloads:

* ``main`` -- a hot dispatch loop that indirect-calls into a pool of
  *handler* functions selected with a Zipf distribution.  The Zipf head is
  the hot code; the long tail is the paper's "cold" code: functions that
  recur throughout execution but whose branches are evicted from the BTB
  between recurrences.
* *handlers* -- medium functions with loops, biased conditionals, rarely
  taken error paths, and calls into the shared library pool.
* *libraries* -- small shared helpers (high call/return density), possibly
  calling deeper helpers.  Function calls follow a DAG (callees always
  have a larger function index) so traces cannot recurse unboundedly.

Layout interleaves hot and cold functions (seeded shuffle) and packs
functions with configurable alignment, so cold function heads share cache
lines with hot function tails -- the exact shape that produces the paper's
head/tail shadow branches.

Branch displacement widths are resolved with a standard relaxation loop:
encode short forms optimistically, lay out, patch, widen whatever
overflows, repeat until fixpoint.
"""

from __future__ import annotations

import math
import random
import zlib
from bisect import bisect
from itertools import accumulate
from typing import Callable, Sequence

from repro.isa.branch import BranchKind
from repro.isa.encoder import Encoder, randbelow
from repro.workloads.layout import lay_out
from repro.workloads.program import BasicBlock, Function, Program
from repro.workloads.profiles import WorkloadProfile


def weighted_choice(rng: random.Random, population: Sequence,
                    weights: Sequence[float]) -> Callable[[], object]:
    """A draw equal to ``rng.choices(population, weights)[0]``.

    The cumulative weights are summed once, with ``itertools.accumulate``
    as ``random.choices`` sums them on every call; each draw is then one
    ``rng.random()`` and the same bisect, so it consumes the stream and
    returns the value exactly as ``choices`` does.
    """
    cum = list(accumulate(weights))
    total = cum[-1] + 0.0
    if len(cum) != len(population) or not 0.0 < total < math.inf:
        raise ValueError(f"bad weights {weights!r} for {population!r}")
    hi = len(cum) - 1
    uniform = rng.random

    def draw():
        return population[bisect(cum, uniform() * total, 0, hi)]

    return draw


class ProgramGenerator:
    """Generates one :class:`Program` from a profile and a seed."""

    def __init__(self, profile: WorkloadProfile, seed: int = 0,
                 base_address: int = 0x400000):
        self.profile = profile
        # zlib.crc32, not hash(): str hashing is randomised per process
        # (PYTHONHASHSEED) and would make generation non-reproducible.
        name_salt = zlib.crc32(profile.name.encode()) & 0xFFFF
        self.rng = random.Random((seed << 16) ^ name_salt)
        self._draw_length = weighted_choice(
            self.rng, *profile.instruction_length_mix)
        kinds = ("cond", "jmp", "call", "indirect_jmp", "ret")
        branchy = (profile.p_cond_block, profile.p_jmp_block,
                   profile.p_call_block, profile.p_indirect_jmp_block)
        self._draw_kind = weighted_choice(
            self.rng, kinds, branchy + (profile.p_early_ret_block,))
        self._draw_loop_kind = weighted_choice(
            self.rng, kinds, branchy + (0.0,))
        self._draw_cold_kind = weighted_choice(
            self.rng, kinds, (0.15, 0.30, 0.33, 0.02, 0.20))
        self.encoder = Encoder()
        self.base_address = base_address
        self._next_label = 0
        self._cold_hint: set[int] = set()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def generate(self) -> Program:
        profile = self.profile
        handlers = [
            self._build_function(
                f"handler_{i}", self._sample(profile.handler_blocks),
                is_handler=True)
            for i in range(profile.n_handlers)
        ]
        libraries = [
            self._build_function(
                f"lib_{i}", self._sample(profile.lib_blocks), is_handler=False)
            for i in range(profile.n_lib_funcs)
        ]
        main = self._build_main([f.entry_label for f in handlers])

        self._wire_calls(handlers, libraries)
        self._mark_hotness(handlers, libraries)

        functions = [main] + self._layout_order(handlers, libraries)
        image = lay_out(functions, self.base_address,
                        profile.function_alignment, self.encoder, self.rng)
        return Program(functions=functions, image=image,
                       base_address=self.base_address,
                       entry_label=main.entry_label,
                       name=profile.name)

    # ------------------------------------------------------------------
    # Function construction
    # ------------------------------------------------------------------

    def _label(self) -> int:
        label = self._next_label
        self._next_label += 1
        return label

    def _sample(self, bounds: tuple[int, int]) -> int:
        """``rng.randint(*bounds)``, drawn as it draws."""
        lo, hi = bounds
        if hi < lo:
            raise ValueError(f"empty range {bounds}")
        return lo + randbelow(self.rng.getrandbits, hi - lo + 1)

    def _fill(self, block: BasicBlock) -> None:
        """Give ``block`` its filler run: each filler's length is drawn,
        then its encoding, and the encoding appended to the run."""
        count = self._sample(self.profile.block_instrs)
        filler, rng, draw_length = (
            self.encoder.filler, self.rng, self._draw_length)
        body = bytearray()
        lengths = bytearray(count)
        for index in range(count):
            length = draw_length()
            lengths[index] = length
            body += filler(rng, length)
        block.body = bytes(body)
        block.body_lengths = bytes(lengths)

    def _build_main(self, handler_labels: list[int]) -> Function:
        """The dispatch loop: dispatch block -> indirect call -> loop back.

        Handler selection weights follow Zipf(s) over handler index, so
        handler 0 is the hottest and the tail is cold.
        """
        profile = self.profile
        if profile.dispatch_policy == "roundrobin":
            return self._build_main_roundrobin(handler_labels)
        weights = [
            1.0 / (rank + 1) ** profile.handler_zipf_s
            for rank in range(len(handler_labels))
        ]
        dispatch = BasicBlock(label=self._label())
        self._fill(dispatch)
        dispatch.terminator = self.encoder.indirect_call(self.rng)
        dispatch.indirect_targets = list(zip(handler_labels, weights))

        loop_back = BasicBlock(label=self._label())
        self._fill(loop_back)
        loop_back.terminator = self.encoder.uncond_jmp(
            self.rng, dispatch.label, wide=True)

        dispatch.fallthrough_label = loop_back.label
        function = Function(name="main", blocks=[dispatch, loop_back], hot=True)
        return function

    def _build_main_roundrobin(self, handler_labels: list[int]) -> Function:
        """Deterministic dispatch: direct-call every handler in order.

        With the profile's trace-time randomness knobs zeroed (plain
        conditionals, indirect jumps), the resulting trace repeats with
        a period of exactly one dispatch cycle -- the shape the
        fast-forward layer detects and skips.  Calls are wired here
        (``_wire_calls`` only touches handlers and libraries).
        """
        blocks = []
        for label in handler_labels:
            block = BasicBlock(label=self._label())
            self._fill(block)
            block.terminator = self.encoder.call(self.rng, target_label=label)
            blocks.append(block)
        loop_back = BasicBlock(label=self._label())
        self._fill(loop_back)
        loop_back.terminator = self.encoder.uncond_jmp(
            self.rng, blocks[0].label, wide=True)
        for index, block in enumerate(blocks):
            block.fallthrough_label = (
                blocks[index + 1].label if index + 1 < len(blocks)
                else loop_back.label)
        return Function(name="main", blocks=blocks + [loop_back], hot=True)

    def _build_function(self, name: str, n_blocks: int,
                        is_handler: bool) -> Function:
        """A chain of blocks with loops, patterned bodies, skips and calls.

        Loops are chosen first (non-overlapping block ranges with a
        deterministic trip count).  Blocks *inside* a loop body favour
        periodic-pattern conditionals: their direction varies per
        iteration (path diversity -> shadow-region coverage, Section 2.5)
        while remaining fully deterministic, so a global-history predictor
        learns them -- mirroring real data-dependent-but-correlated
        branches.
        """
        profile = self.profile
        rng = self.rng
        blocks = [BasicBlock(label=self._label()) for _ in range(max(2, n_blocks))]
        for block in blocks:
            self._fill(block)

        loop_end_to_start, loop_end_of_body = self._choose_loops(len(blocks))
        self._cold_hint = set()

        for index, block in enumerate(blocks[:-1]):
            block.fallthrough_label = blocks[index + 1].label
            if index in loop_end_to_start:
                self._terminate_backedge(blocks, index, loop_end_to_start[index])
                continue
            in_loop_body = index in loop_end_of_body
            if in_loop_body and rng.random() < profile.p_pattern_cond:
                self._terminate_pattern(blocks, index, loop_end_of_body[index])
                continue
            if (profile.cold_path_eligible_bias
                    and index in self._cold_hint and not in_loop_body):
                # Skipped (cold) blocks live in the tail shadow of the hot
                # skip branch; give them the SBB-eligible terminators that
                # real cold paths have (error handlers end in jumps to
                # cleanup, calls to slow paths, or returns).
                kind = self._draw_cold_kind()
            elif in_loop_body:
                # Early returns inside a loop body would starve the
                # back-edge; this draw disallows them.
                kind = self._draw_loop_kind()
            else:
                kind = self._draw_kind()
            if kind == "cond":
                self._terminate_cond(blocks, index)
            elif kind == "jmp":
                self._terminate_jmp(blocks, index)
            elif kind == "call":
                # Placeholder; the callee is wired once all functions exist.
                block.terminator = self.encoder.call(rng, target_label=-1)
            elif kind == "indirect_jmp":
                self._terminate_indirect_jmp(blocks, index)
            else:  # early return (shared epilogue would be a jmp; keep ret)
                block.terminator = self.encoder.ret(
                    rng, with_imm=rng.random() < 0.1)
        blocks[-1].terminator = self.encoder.ret(
            rng, with_imm=rng.random() < 0.1)
        return Function(name=name, blocks=blocks, hot=False)

    def _choose_loops(self, n_blocks: int) -> tuple[dict[int, int], dict[int, int]]:
        """Greedy non-overlapping loop placement.

        Returns (back-edge block -> loop-head block) and (body block ->
        its loop's back-edge block).
        """
        rng = self.rng
        loop_end_to_start: dict[int, int] = {}
        loop_end_of_body: dict[int, int] = {}
        index = 1
        while index < n_blocks - 2:
            if rng.random() < self.profile.p_loop_backedge:
                start = index
                end = min(start + rng.randint(1, 3), n_blocks - 2)
                loop_end_to_start[end] = start
                for body in range(start, end):
                    loop_end_of_body[body] = end
                index = end + 2
            else:
                index += 1
        return loop_end_to_start, loop_end_of_body

    def _terminate_backedge(self, blocks: list[BasicBlock], index: int,
                            start: int) -> None:
        rng = self.rng
        block = blocks[index]
        loop_trip = rng.randint(*self.profile.loop_trip_range)
        wide = (index - start) > self.profile.short_branch_block_span
        block.terminator = self.encoder.cond_branch(
            rng, blocks[start].label, wide=wide)
        block.cond_taken_bias = 1.0 - 1.0 / max(loop_trip, 1)
        block.loop_trip = loop_trip

    def _terminate_pattern(self, blocks: list[BasicBlock], index: int,
                           loop_end: int) -> None:
        """Periodic conditional inside a loop body; taken skips within
        the body (or to just past the loop = break)."""
        rng = self.rng
        profile = self.profile
        block = blocks[index]
        target_index = min(index + rng.randint(2, 3), loop_end + 1,
                           len(blocks) - 1)
        length = rng.randint(*profile.pattern_len_range)
        density = rng.uniform(*profile.pattern_density_range)
        bits = 0
        for bit in range(length):
            if rng.random() < density:
                bits |= 1 << bit
        wide = (target_index - index) > profile.short_branch_block_span
        block.terminator = self.encoder.cond_branch(
            rng, blocks[target_index].label, wide=wide)
        block.pattern_bits = bits
        block.pattern_len = length
        block.cond_taken_bias = (bin(bits).count("1") / length) or 0.01

    def _terminate_cond(self, blocks: list[BasicBlock], index: int) -> None:
        """Straight-line conditional: forward skip or rarely-taken path."""
        profile = self.profile
        rng = self.rng
        block = blocks[index]
        if index + 2 < len(blocks) and rng.random() < profile.p_skip_forward:
            # Skip over the next one or two (cold) blocks almost always.
            span = 2 if rng.random() < 0.75 else 3
            target_index = min(len(blocks) - 1, index + span)
            bias = rng.uniform(0.95, 0.995)
            self._cold_hint.update(range(index + 1, target_index))
        else:
            # Rarely-taken forward branch (error/slow path stays cold).
            target_index = rng.randint(index + 1, len(blocks) - 1)
            bias = rng.uniform(0.01, 0.06)
        target = blocks[target_index]
        wide = (target_index - index) > profile.short_branch_block_span
        block.terminator = self.encoder.cond_branch(
            rng, target.label, wide=wide)
        block.cond_taken_bias = bias

    def _terminate_jmp(self, blocks: list[BasicBlock], index: int) -> None:
        """Unconditional jump, usually to the next block (if/else joins),
        occasionally further ahead (shared epilogues)."""
        rng = self.rng
        block = blocks[index]
        if rng.random() < 0.7 or index + 2 >= len(blocks):
            target_index = index + 1
        else:
            target_index = rng.randint(index + 2,
                                       min(index + 4, len(blocks) - 1))
        wide = (target_index - index) > self.profile.short_branch_block_span
        block.terminator = self.encoder.uncond_jmp(
            rng, blocks[target_index].label, wide=wide)

    def _terminate_indirect_jmp(self, blocks: list[BasicBlock], index: int) -> None:
        """A switch: indirect jump among a few later blocks."""
        rng = self.rng
        block = blocks[index]
        later = blocks[index + 1:]
        count = min(len(later), rng.randint(2, 5))
        candidates = rng.sample(later, count)
        block.terminator = self.encoder.indirect_jmp(
            rng, memory=rng.random() < 0.5)
        block.indirect_targets = [
            (candidate.label, rng.uniform(0.2, 1.0)) for candidate in candidates
        ]

    # ------------------------------------------------------------------
    # Call wiring (DAG by function index)
    # ------------------------------------------------------------------

    def _wire_calls(self, handlers: list[Function],
                    libraries: list[Function]) -> None:
        """Fill in call targets.

        Each handler owns a *private segment* of the library pool (its
        cold helpers, which recur exactly when the handler recurs) and
        also calls a small set of globally-hot libraries (the Zipf head
        every request touches).  Libraries call strictly-later libraries
        (a DAG, so traces cannot recurse), preferring nearby ones --
        which extends each handler's private call tree.
        """
        rng = self.rng
        profile = self.profile
        lib_count = len(libraries)
        segment = max(4, profile.private_lib_segment)
        for handler_index, function in enumerate(handlers):
            base = (handler_index * segment) % max(1, lib_count)
            for block in function.blocks:
                terminator = block.terminator
                if terminator.kind is not BranchKind.CALL:
                    continue
                if rng.random() < profile.p_hot_lib_call:
                    # Globally-hot library (skewed toward low indices).
                    position = rng.random() ** profile.lib_call_skew
                    callee = libraries[int(position * lib_count) % lib_count]
                else:
                    callee = libraries[(base + rng.randrange(segment)) % lib_count]
                terminator.target_label = callee.entry_label
                callee.call_count += 1
        for lib_index, function in enumerate(libraries):
            for block in function.blocks:
                terminator = block.terminator
                if terminator.kind is not BranchKind.CALL:
                    continue
                if lib_index + 1 >= lib_count:
                    self._demote_call(block)
                    continue
                # Prefer nearby later libraries (same private cluster).
                reach = min(lib_count - 1 - lib_index, 2 * segment)
                callee = libraries[lib_index + 1 + rng.randrange(reach)]
                terminator.target_label = callee.entry_label
                callee.call_count += 1

    def _demote_call(self, block: BasicBlock) -> None:
        """Turn an unwireable call terminator into an unconditional jump."""
        block.terminator = self.encoder.uncond_jmp(
            self.rng, block.fallthrough_label, wide=True)

    def _mark_hotness(self, handlers: list[Function],
                      libraries: list[Function]) -> None:
        """Rough static hotness for the layout/BOLT passes."""
        hot_handlers = max(1, int(len(handlers) * self.profile.hot_handler_fraction))
        for index, function in enumerate(handlers):
            function.hot = index < hot_handlers
        threshold = sorted(
            (lib.call_count for lib in libraries), reverse=True
        )[max(0, int(len(libraries) * 0.2) - 1)] if libraries else 0
        for library in libraries:
            library.hot = library.call_count >= max(1, threshold)

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    def _layout_order(self, handlers: list[Function],
                      libraries: list[Function]) -> list[Function]:
        """Interleave hot and cold functions.

        ``shuffle``: seeded random order (link order in real builds).
        ``scatter`` (default): rank functions by estimated heat and place
        the hot head uniformly among the cold tail, so hot and cold
        functions share cache lines throughout the image -- the paper's
        motivating layout ("frequently used functions are placed next to
        less frequently used, colder functions in the binary").
        """
        if self.profile.layout_policy == "shuffle":
            functions = handlers + libraries
            order_rng = random.Random(self.rng.randrange(1 << 30))
            order_rng.shuffle(functions)
            return functions

        heat: list[tuple[float, Function]] = []
        for rank, handler in enumerate(handlers):
            heat.append((1.0 / (rank + 1) ** self.profile.handler_zipf_s,
                         handler))
        max_calls = max((lib.call_count for lib in libraries), default=1) or 1
        for lib in libraries:
            heat.append((lib.call_count / max_calls, lib))
        heat.sort(key=lambda item: item[0], reverse=True)
        ranked = [function for _, function in heat]
        hot_count = max(1, int(len(ranked) * self.profile.hot_handler_fraction))
        hot, cold = ranked[:hot_count], ranked[hot_count:]

        order_rng = random.Random(self.rng.randrange(1 << 30))
        order_rng.shuffle(cold)
        ordered: list[Function] = []
        stride = max(1, len(cold) // max(1, len(hot)))
        hot_iter = iter(hot)
        for index, function in enumerate(cold):
            if index % stride == 0:
                nxt = next(hot_iter, None)
                if nxt is not None:
                    ordered.append(nxt)
            ordered.append(function)
        ordered.extend(hot_iter)
        return ordered
