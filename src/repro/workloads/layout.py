"""Address assignment, branch relaxation and image emission.

Shared by the program generator (initial layout) and the BOLT pass
(re-layout after function reordering).  The relaxation loop is the
classic assembler algorithm: assign addresses assuming current encodings,
patch PC-relative displacements, widen any branch whose displacement
overflows its immediate, and repeat until a fixpoint.
"""

from __future__ import annotations

import random

from repro.isa.branch import BranchKind
from repro.isa.encoder import Encoder
from repro.workloads.program import BasicBlock, Function

#: Inter-function padding byte (NOP), as linkers emit.
PAD_BYTE = 0x90

_MAX_RELAX_ITERATIONS = 12


def lay_out(functions: list[Function], base_address: int, alignment: int,
            encoder: Encoder, rng: random.Random) -> bytes:
    """Assign addresses to every block and terminator and emit the image.

    Mutates ``start_pc``/``pc`` fields in place and patches every direct
    branch displacement.  Returns the final byte image.
    """
    block_by_label = {
        block.label: block
        for function in functions for block in function.blocks
    }
    align = max(1, alignment)
    for _ in range(_MAX_RELAX_ITERATIONS):
        _assign_addresses(functions, base_address, align)
        if not _patch_all(functions, block_by_label, encoder, rng):
            return _emit_image(functions, base_address, align)
    raise RuntimeError("branch relaxation did not converge")


def _assign_addresses(functions: list[Function], base_address: int,
                      align: int) -> None:
    cursor = base_address
    for function in functions:
        remainder = cursor % align
        if remainder:
            cursor += align - remainder
        for block in function.blocks:
            block.start_pc = cursor
            cursor += len(block.body)
            terminator = block.terminator
            terminator.pc = cursor
            cursor += len(terminator.encoding)


def _patch_all(functions: list[Function],
               block_by_label: dict[int, BasicBlock],
               encoder: Encoder, rng: random.Random) -> bool:
    """Patch every direct branch; True when any branch had to be widened."""
    overflowed = False
    for function in functions:
        for block in function.blocks:
            terminator = block.terminator
            if terminator.rel_width == 0 or terminator.target_label is None:
                continue
            target = block_by_label[terminator.target_label]
            try:
                terminator.patch_relative(target.start_pc)
            except OverflowError:
                _widen(block, encoder, rng)
                overflowed = True
    return overflowed


def _widen(block: BasicBlock, encoder: Encoder, rng: random.Random) -> None:
    old = block.terminator
    if old.kind is BranchKind.DIRECT_COND:
        new = encoder.cond_branch(rng, old.target_label, wide=True)
    elif old.kind is BranchKind.DIRECT_UNCOND:
        new = encoder.uncond_jmp(rng, old.target_label, wide=True)
    else:  # pragma: no cover - calls already use rel32
        raise AssertionError(f"cannot widen {old.kind}")
    block.terminator = new


def _emit_image(functions: list[Function], base_address: int,
                align: int) -> bytes:
    parts: list[bytes] = []
    cursor = base_address
    for function in functions:
        remainder = cursor % align
        if remainder:
            pad = align - remainder
            parts.append(bytes([PAD_BYTE]) * pad)
            cursor += pad
        for block in function.blocks:
            if block.start_pc != cursor:
                raise AssertionError(
                    f"layout drift at {function.name}: "
                    f"{block.start_pc:#x} != {cursor:#x}")
            parts.append(block.body)
            parts.append(block.terminator.encoding)
            cursor += block.size
    return b"".join(parts)
