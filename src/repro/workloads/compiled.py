"""Compiled traces: the form every replay reads.

Replaying a trace is the simulator's hot loop, and a grid run replays
the *same* trace through dozens of configurations.  Nearly everything a
record says is a constant of its basic block -- entry address,
instruction count, terminating branch, kind, fallthrough -- and a trace
executes few distinct blocks, so a :class:`CompiledTrace` holds:

* a table of the trace's distinct executed blocks (``numpy`` int64
  columns, one entry per block);
* per record only what varies: the block's index into that table, the
  taken bit and the target;
* a content fingerprint (SHA-256 over the nine per-record core columns,
  computed on first read), so byte-identity of two compilations of the
  same (program, seed) is checkable across processes.

The core columns (:data:`CORE_COLUMNS`: the block's six constants,
``kind`` as a small integer code, plus ``taken`` as 0/1, ``target``
and ``next_pc``) and the line-size *derived* columns are gathered from
that form on demand, for the ``run_compiled`` oracle, the renderers
and the fingerprint.  The batched kernel (:mod:`repro.frontend.batch`)
and period detection read the compact form directly.

A generated trace arrives as a block-index stream
(``TraceGenerator.stream``) and :meth:`CompiledTrace.from_stream`
compacts it against the program's per-block constant columns
(``BlockColumns``).  This is the only trace type: every simulator,
harness and tool reads a :class:`CompiledTrace`.
"""

from __future__ import annotations

import hashlib
from array import array
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.isa.branch import CODE_BY_KIND, KIND_BY_CODE, BranchKind
from repro.obs.profiler import PROFILER

if TYPE_CHECKING:
    from repro.workloads.program import BlockColumns

__all__ = ["BLOCK_COLUMNS", "CODE_BY_KIND", "CORE_COLUMNS", "CompiledTrace",
           "KIND_BY_CODE"]


#: Core columns, in fingerprint order: everything one record says.
CORE_COLUMNS: tuple[str, ...] = (
    "block_start", "n_instr", "branch_pc", "branch_len", "kind",
    "taken", "target", "fallthrough", "next_pc")

#: The block-constant core columns: a trace's block table holds one
#: entry of each per distinct executed block.
BLOCK_COLUMNS: tuple[str, ...] = (
    "block_start", "n_instr", "branch_pc", "branch_len", "kind",
    "fallthrough")

_ITEM = array("q").itemsize
assert _ITEM == 8, "compiled traces require 64-bit array('q') items"


def _i64(buffer) -> np.ndarray:
    """An int64 view (no copy) of an ``array('q')``."""
    return np.frombuffer(buffer, dtype=np.int64)


# ----------------------------------------------------------------------
# Column-level period detection (the fast-forward layer's first gate)
# ----------------------------------------------------------------------

def _common_suffix_records(a, b, width: int) -> int:
    """Length in records of the longest common suffix of two columns.

    ``a`` and ``b`` are equal-length byte views of column slices.
    Compared in 64 KiB blocks from the end (C-speed), with a per-byte
    scan only inside the first differing block.
    """
    pos = len(a)
    matched = 0
    block = 1 << 16
    while pos > 0:
        start = max(0, pos - block)
        if a[start:pos] == b[start:pos]:
            matched += pos - start
            pos = start
            continue
        for i in range(pos - 1, start - 1, -1):
            if a[i] != b[i]:
                matched += pos - 1 - i
                break
        break
    return matched // width


def _verify_period(columns, period: int, n_records: int) -> int | None:
    """Preamble length if ``period`` holds for every column, else None.

    ``columns`` are ``(buffer, item width)`` pairs.  A trace has period
    ``p`` with preamble ``m`` when record ``i`` equals record ``i + p``
    for all ``i >= m``; per column that is a common suffix of the
    column against itself shifted by ``p``.
    """
    preamble = 0
    for column, width in columns:
        view = memoryview(column).cast("B")
        suffix = _common_suffix_records(
            view[:(n_records - period) * width], view[period * width:],
            width)
        preamble = max(preamble, (n_records - period) - suffix)
        if n_records - preamble < 2 * period:
            return None
    return preamble


def _detect_period(columns, probe_column,
                   n_records: int) -> tuple[int, int] | None:
    """``(period, preamble)`` of a columnar trace, or None.

    ``columns`` are ``(buffer, item width)`` pairs; ``probe_column`` is
    an 8-byte-item column whose values identify a record's block.
    Candidate periods come from re-occurrences of the trace's final
    records (a multi-record needle, so values that recur many times
    per period do not flood the search) in ``probe_column``, found
    backwards with ``bytes.rfind`` so the smallest period is tried
    first; each candidate is verified exactly against every column.  A
    detected period must repeat at least twice past the preamble,
    otherwise "periodicity" would be a single coincidence.

    Every candidate up to half the trace is tried: a needle that recurs
    many times within one period must not hide the period.  The scan
    ends because ``end`` only moves backwards.
    """
    if n_records < 4:
        return None
    probe = bytes(memoryview(probe_column))
    tail = min(16, n_records // 2)
    needle = probe[(n_records - tail) * _ITEM:]
    end = n_records * _ITEM - 1  # excludes only the trivial self-match
    while True:
        j = probe.rfind(needle, 0, end)
        if j < 0:
            return None
        end = j + len(needle) - 1
        if j % _ITEM:
            continue  # unaligned coincidence, keep scanning
        period = (n_records - tail) - j // _ITEM
        if period > n_records // 2:
            return None
        preamble = _verify_period(columns, period, n_records)
        if preamble is not None:
            return period, preamble
    return None


class CompiledTrace:
    """One trace as its distinct executed blocks plus per-record outcomes.

    Everything a record says about its block is a constant of the code
    image, so it is stored once per *executed block*:

    ``block_table``
        ``numpy`` int64 columns named by :data:`BLOCK_COLUMNS`, one entry
        per distinct block the trace executes (``n_blocks`` of them; a
        :meth:`prefix` keeps its whole trace's table);
    ``blocks``
        an ``array('q')``: record ``i`` executes ``block_table`` entry
        ``blocks[i]``;
    ``taken``
        ``bytes``, one 0/1 taken bit per record;
    ``target``
        an ``array('q')``, each record's target (the successor's start,
        or a conditional's static target).

    A record's ``next_pc`` is its target when taken, else its
    fallthrough.  The nine per-record core columns are gathered from
    this form on demand (:meth:`column`, :meth:`derived`,
    :attr:`fingerprint`).

    Construct via :meth:`from_stream` (a generated block-index stream),
    :meth:`prefix` (a leading slice of another trace) or
    ``WorkloadCache.compiled`` (memoised).  Instances are immutable
    after construction.
    """

    def __init__(self, block_table: dict, blocks: array, taken: bytes,
                 target: array):
        self.n_records = len(taken)
        self.n_blocks = len(block_table["block_start"])
        self.block_table = block_table
        self.blocks = blocks
        self.taken = taken
        self.target = target
        self._derived: dict[int, tuple[array, array]] = {}
        self._period_cache: tuple[int, int] | None | bool = False

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    @classmethod
    def from_stream(cls, columns: "BlockColumns", blocks: array,
                    taken: bytearray) -> "CompiledTrace":
        """Compile a block-index stream (``blocks``: the ``n + 1``
        executed block indices, ``taken``: ``n`` taken bits; see
        ``TraceGenerator.stream``) against the program's block
        ``columns``.

        The executed blocks are compacted with ``numpy.unique``; a
        record's target is its successor's start, except for a
        conditional, whose target is its static one.
        """
        with PROFILER.section("trace.compile"):
            index = _i64(blocks)
            here = index[:-1]
            executed, compact = np.unique(here, return_inverse=True)
            branch_pc = _i64(columns.branch_pc)[executed]
            branch_len = _i64(columns.branch_len)[executed]
            table = {
                "block_start": _i64(columns.start_pc)[executed],
                "n_instr": _i64(columns.n_instr)[executed],
                "branch_pc": branch_pc,
                "branch_len": branch_len,
                "kind": _i64(columns.kind)[executed],
                "fallthrough": branch_pc + branch_len,
            }
            cond = CODE_BY_KIND[BranchKind.DIRECT_COND]
            target = np.where(_i64(columns.kind)[here] == cond,
                              _i64(columns.cond_target)[here],
                              _i64(columns.start_pc)[index[1:]])
            return cls(table, array("q", compact.astype(np.int64).tobytes()),
                       bytes(taken), array("q", target.tobytes()))

    def prefix(self, n_records: int) -> "CompiledTrace":
        """The trace's first ``n_records`` records.

        Slices the per-record columns and shares the block table, so
        the prefix gathers (and fingerprints) exactly as the same
        records compiled on their own.
        """
        if not 0 <= n_records <= self.n_records:
            raise ValueError(f"prefix of {n_records} records out of range "
                             f"for a {self.n_records}-record trace")
        return CompiledTrace(self.block_table, self.blocks[:n_records],
                             self.taken[:n_records],
                             self.target[:n_records])

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 over the core columns (hashed on first read)."""
        digest = hashlib.sha256()
        digest.update(str(self.n_records).encode())
        for name in CORE_COLUMNS:
            digest.update(name.encode())
            digest.update(self.column(name).tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def _per_record(self, block_values):
        """``block_values`` (one per executed block) gathered per record."""
        return block_values[_i64(self.blocks)]

    def column(self, name: str) -> Sequence[int]:
        """One core column (a fresh ``array('q')``), gathered from the
        compact form."""
        if name in BLOCK_COLUMNS:
            values = self._per_record(self.block_table[name])
        elif name == "taken":
            values = np.frombuffer(self.taken, dtype=np.uint8).astype(np.int64)
        elif name == "target":
            return self.target[:]
        elif name == "next_pc":
            values = np.where(
                np.frombuffer(self.taken, dtype=np.uint8) != 0,
                _i64(self.target),
                self._per_record(self.block_table["fallthrough"]))
        else:
            raise KeyError(name)
        return array("q", values.tobytes())

    def derived(self, line_size: int) -> tuple[Sequence[int], Sequence[int]]:
        """``(first_line, n_lines)`` columns for ``line_size``.

        Computed once per (instance, line size) over the executed
        blocks, gathered per record and memoised.  The arithmetic is
        exactly the engine's historical per-record code::

            first_line = block_start & ~(line_size - 1)
            last_line  = (branch_pc + branch_len - 1) & ~(line_size - 1)
            n_lines    = (last_line - first_line) // line_size + 1
        """
        cached = self._derived.get(line_size)
        if cached is not None:
            return cached
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"line_size must be a power of two, "
                             f"got {line_size}")
        line_mask = ~(line_size - 1)
        table = self.block_table
        first = table["block_start"] & line_mask
        last = (table["branch_pc"] + table["branch_len"] - 1) & line_mask
        self._derived[line_size] = (
            array("q", self._per_record(first).tobytes()),
            array("q", self._per_record(
                (last - first) // line_size + 1).tobytes()))
        return self._derived[line_size]

    def period(self) -> tuple[int, int] | None:
        """``(period, preamble)`` of the record stream, or None.

        Record ``i`` equals record ``i + period`` for all
        ``i >= preamble``, and at least two full periods follow the
        preamble.  Two records are equal exactly when their block
        index, taken bit and target are, so detection reads only those
        three columns, probing the block stream.  Detected once per
        instance and cached; the fast-forward layer and ``repro
        workloads period`` both read it from here.
        """
        if self._period_cache is not False:
            return self._period_cache
        with PROFILER.section("trace.period"):
            self._period_cache = _detect_period(
                ((self.blocks, _ITEM), (self.taken, 1),
                 (self.target, _ITEM)),
                self.blocks, self.n_records)
        return self._period_cache

    def __len__(self) -> int:
        return self.n_records

