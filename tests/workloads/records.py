"""Object records: a test-side view of compiled traces.

The simulator reads only :class:`~repro.workloads.compiled.CompiledTrace`.
Tests that hand-build directed traces, or walk a trace record by record
against an oracle, use :class:`BlockRecord` objects instead:
:func:`from_records` lowers a list of them to a compiled trace and
:func:`as_records` gives a compiled trace back as one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.isa.branch import CODE_BY_KIND, KIND_BY_CODE, BranchKind
from repro.workloads.compiled import BLOCK_COLUMNS, CompiledTrace


@dataclass(frozen=True, slots=True)
class BlockRecord:
    """One executed basic block and its terminating branch outcome.

    ``fallthrough`` is the address immediately after the branch: the
    not-taken successor for conditionals and the return address for calls.
    ``target`` is where control actually went when ``taken`` (branch
    target, call entry, return address or indirect destination); a
    conditional's is its static target whether taken or not.
    ``next_pc`` is always the address of the next executed block.
    """

    block_start: int
    n_instr: int
    branch_pc: int
    branch_len: int
    kind: BranchKind
    taken: bool
    target: int
    fallthrough: int
    next_pc: int


def from_records(records: Iterable[BlockRecord]) -> CompiledTrace:
    """Lower ``records``, deduplicating their blocks on the
    block-constant fields (:data:`BLOCK_COLUMNS`).

    Raises ``ValueError`` for a record whose ``next_pc`` is not its
    target when taken and its fallthrough otherwise: the compiled form
    derives ``next_pc`` and could not give it back.
    """
    index_of: dict[tuple, int] = {}
    blocks = array("q")
    taken = bytearray()
    target = array("q")
    for record in records:
        went = record.taken
        if record.next_pc != (record.target if went
                              else record.fallthrough):
            raise ValueError(
                f"record {len(taken)}: next_pc {record.next_pc:#x} "
                f"is neither its target when taken nor its "
                f"fallthrough when not")
        key = (record.block_start, record.n_instr, record.branch_pc,
               record.branch_len, CODE_BY_KIND[record.kind],
               record.fallthrough)
        blocks.append(index_of.setdefault(key, len(index_of)))
        taken.append(1 if went else 0)
        target.append(record.target)
    keys = list(index_of)
    table = {name: np.array([key[field] for key in keys], dtype=np.int64)
             for field, name in enumerate(BLOCK_COLUMNS)}
    return CompiledTrace(table, blocks, bytes(taken), target)


def as_records(compiled: CompiledTrace) -> list[BlockRecord]:
    """``compiled`` as one :class:`BlockRecord` per record."""
    table = compiled.block_table
    block_fields = [
        (start, n_instr, pc, length, KIND_BY_CODE[code], fallthrough)
        for start, n_instr, pc, length, code, fallthrough in zip(
            *(table[name].tolist() for name in BLOCK_COLUMNS))]
    return [
        BlockRecord(start, n_instr, pc, length, kind, bool(went),
                    target, fallthrough, target if went else fallthrough)
        for (start, n_instr, pc, length, kind, fallthrough), went, target
        in zip(map(block_fields.__getitem__, compiled.blocks),
               compiled.taken, compiled.target)]


def process(bpu, record: BlockRecord, branch_line_in_l1i: bool, stats):
    """``bpu.process`` over one record's fields."""
    return bpu.process(record.block_start, record.branch_pc, record.kind,
                       record.taken, record.target, record.fallthrough,
                       branch_line_in_l1i, stats)
