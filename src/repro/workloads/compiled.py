"""Compiled traces: the flat-array fast path for trace replay.

A generated trace is a list of :class:`~repro.workloads.trace.BlockRecord`
dataclass instances.  Replaying it is the simulator's hot loop, and a grid
run replays the *same* trace through dozens of configurations -- so the
object representation pays its attribute-access and per-record arithmetic
tax over and over.

:class:`CompiledTrace` lowers a trace **once** into columnar
``array('q')`` storage:

* one 64-bit column per :class:`BlockRecord` field (``kind`` as a small
  integer code, ``taken`` as 0/1);
* precomputed *derived* columns keyed by cache-line size -- the branch
  line address, the block's first line and its line count -- which the
  engine's per-record prefetch arithmetic otherwise recomputes for every
  (workload, config) cell;
* a content fingerprint (SHA-256 over the column bytes, computed on
  first read), so byte-identity of two compilations of the same
  (program, seed) is checkable across processes.

Every replay goes through these columns: ``FrontEndSimulator.run``
lowers object records with :meth:`CompiledTrace.from_records` and calls
``run_compiled``.
"""

from __future__ import annotations

import hashlib
from array import array
from functools import cached_property
from typing import Iterable, Sequence

from repro.isa.branch import BranchKind
from repro.obs.profiler import PROFILER
from repro.workloads.trace import BlockRecord

try:  # numpy accelerates decode-table construction; plain Python works.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatch
    _np = None

#: The branch-kind codes: the compiled ``kind`` column stores indices
#: into this tuple.
KIND_BY_CODE: tuple[BranchKind, ...] = tuple(BranchKind)
CODE_BY_KIND: dict[BranchKind, int] = {
    kind: code for code, kind in enumerate(KIND_BY_CODE)}

#: Core columns, in fingerprint order; one per BlockRecord field.
CORE_COLUMNS: tuple[str, ...] = (
    "block_start", "n_instr", "branch_pc", "branch_len", "kind",
    "taken", "target", "fallthrough", "next_pc")

#: Line sizes whose derived columns are precomputed at compile time
#: (every stock configuration uses 64-byte lines; other sizes are
#: derived lazily per instance).
DEFAULT_LINE_SIZES: tuple[int, ...] = (64,)

_ITEM = array("q").itemsize
assert _ITEM == 8, "compiled traces require 64-bit array('q') items"


# ----------------------------------------------------------------------
# Column-level period detection (the fast-forward layer's first gate)
# ----------------------------------------------------------------------

def _common_suffix_records(a, b, width: int = _ITEM) -> int:
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

    A trace has period ``p`` with preamble ``m`` when record ``i``
    equals record ``i + p`` for all ``i >= m``; per column that is a
    common suffix of the column against itself shifted by ``p``.
    """
    preamble = 0
    for column in columns:
        view = memoryview(column).cast("B")
        suffix = _common_suffix_records(
            view[:(n_records - period) * _ITEM], view[period * _ITEM:])
        preamble = max(preamble, (n_records - period) - suffix)
        if n_records - preamble < 2 * period:
            return None
    return preamble


def _detect_period(columns, probe_column,
                   n_records: int) -> tuple[int, int] | None:
    """``(period, preamble)`` of a columnar trace, or None.

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


def _period_of_columns(columns: dict[str, Sequence[int]],
                       n_records: int) -> tuple[int, int] | None:
    ordered = [columns[name] for name in CORE_COLUMNS]
    return _detect_period(ordered, columns["branch_pc"], n_records)


class TraceDecodeTable:
    """Fully decoded per-record columns for the batched kernel.

    The compiled columns are int64 buffers; the per-record loop still
    pays to re-derive booleans, kind objects and line arithmetic from
    them on every (config, seed) lane.  This table decodes a trace
    **once per (trace, line_size)** into plain Python lists -- the
    fastest thing to index from an interpreted loop -- so every lane
    that shares the trace shares the decode:

    ``kind``            :class:`BranchKind` objects (not codes);
    ``taken``           bools;
    ``exit_pc``         ``branch_pc + branch_len`` (the tail-decode
                        boundary Skia probes on taken exits);
    ``branch_line``     ``branch_pc & ~(line_size-1)`` (the residency
                        probe the BPU makes per record);
    ``entry_offset``    ``block_start % line_size`` (zero means head
                        decode is structurally skipped);
    ``tail_aligned``    ``exit_pc % line_size == 0`` (true means tail
                        decode is structurally a no-op).

    Tables derive purely from the columns and are memoised on their
    ``CompiledTrace``: new trace bytes mean a new instance and
    therefore fresh tables.

    The table holds no per-geometry state.  The kernel derives the
    geometry-dependent columns (BTB set/tag, L1 set numbers, decode
    cycles, retire delta) one lockstep chunk at a time from the
    compiled buffers in ``int64`` (``numpy.frombuffer`` slices), and
    drops them when the chunk's round ends.
    """

    __slots__ = ("n_records", "line_size", "block_start", "n_instr",
                 "branch_pc", "exit_pc", "kind", "kind_code", "taken",
                 "target", "fallthrough", "next_pc", "first_line",
                 "n_lines", "branch_line", "entry_offset", "tail_aligned",
                 "int64")

    def __init__(self, trace: "CompiledTrace", line_size: int):
        self.n_records = n = trace.n_records
        self.line_size = line_size
        first_line, n_lines = trace.derived(line_size)
        col = trace.column
        if _np is not None:
            i64 = lambda c: _np.frombuffer(c, dtype=_np.int64)  # noqa: E731
            block_start = i64(col("block_start"))
            branch_pc = i64(col("branch_pc"))
            exit_pc = branch_pc + i64(col("branch_len"))
            mask = ~(line_size - 1)
            self.block_start = block_start.tolist()
            self.n_instr = i64(col("n_instr")).tolist()
            self.branch_pc = branch_pc.tolist()
            self.exit_pc = exit_pc.tolist()
            codes = i64(col("kind")).tolist()
            self.taken = i64(col("taken")).astype(bool).tolist()
            self.target = i64(col("target")).tolist()
            self.fallthrough = i64(col("fallthrough")).tolist()
            self.next_pc = i64(col("next_pc")).tolist()
            self.first_line = i64(first_line).tolist()
            self.n_lines = i64(n_lines).tolist()
            self.branch_line = (branch_pc & mask).tolist()
            self.entry_offset = (block_start & (line_size - 1)).tolist()
            self.tail_aligned = (exit_pc & (line_size - 1) == 0).tolist()
        else:
            mask = ~(line_size - 1)
            self.block_start = list(col("block_start"))
            self.n_instr = list(col("n_instr"))
            self.branch_pc = list(col("branch_pc"))
            self.exit_pc = [pc + ln for pc, ln in
                            zip(col("branch_pc"), col("branch_len"))]
            codes = list(col("kind"))
            self.taken = [bool(t) for t in col("taken")]
            self.target = list(col("target"))
            self.fallthrough = list(col("fallthrough"))
            self.next_pc = list(col("next_pc"))
            self.first_line = list(first_line)
            self.n_lines = list(n_lines)
            self.branch_line = [pc & mask for pc in self.branch_pc]
            self.entry_offset = [s & (line_size - 1)
                                 for s in self.block_start]
            self.tail_aligned = [pc & (line_size - 1) == 0
                                 for pc in self.exit_pc]
        kinds = KIND_BY_CODE
        self.kind = [kinds[code] for code in codes]
        # Codes alongside objects: the kernel's per-kind flag tables and
        # counter accumulators index by small int, avoiding enum hashing.
        self.kind_code = codes
        # The compiled int64 buffers the kernel's per-chunk geometry
        # derivation slices (plain references, so no buffer export
        # outlives a chunk).
        self.int64 = {"branch_pc": col("branch_pc"),
                      "branch_len": col("branch_len"),
                      "first_line": first_line,
                      "n_instr": col("n_instr")}


class CompiledTrace:
    """Columnar lowering of one materialised trace.

    Construct via :meth:`from_records` (compilation) or
    ``WorkloadCache.compiled`` (memoised).  Instances are immutable
    after construction.
    """

    def __init__(self, n_records: int, columns: dict[str, array]):
        self.n_records = n_records
        self._columns = columns
        self._derived: dict[int, tuple[array, array]] = {}
        self._decode_tables: dict[int, TraceDecodeTable] = {}
        self._period_cache: tuple[int, int] | None | bool = False

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[BlockRecord],
                     line_sizes: Sequence[int] = DEFAULT_LINE_SIZES,
                     ) -> "CompiledTrace":
        """Lower ``records`` into flat columns (one pass)."""
        with PROFILER.section("trace.compile"):
            cols = {name: array("q") for name in CORE_COLUMNS}
            block_start = cols["block_start"].append
            n_instr = cols["n_instr"].append
            branch_pc = cols["branch_pc"].append
            branch_len = cols["branch_len"].append
            kind = cols["kind"].append
            taken = cols["taken"].append
            target = cols["target"].append
            fallthrough = cols["fallthrough"].append
            next_pc = cols["next_pc"].append
            code_of = CODE_BY_KIND
            n = 0
            for record in records:
                block_start(record.block_start)
                n_instr(record.n_instr)
                branch_pc(record.branch_pc)
                branch_len(record.branch_len)
                kind(code_of[record.kind])
                taken(1 if record.taken else 0)
                target(record.target)
                fallthrough(record.fallthrough)
                next_pc(record.next_pc)
                n += 1
            trace = cls(n, cols)
            for line_size in line_sizes:
                trace.derived(line_size)
                trace.decode_table(line_size)
        return trace

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 over the core columns (hashed on first read)."""
        digest = hashlib.sha256()
        digest.update(str(self.n_records).encode())
        for name in CORE_COLUMNS:
            digest.update(name.encode())
            digest.update(self._columns[name].tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def column(self, name: str) -> Sequence[int]:
        """One core column (an ``array('q')``)."""
        return self._columns[name]

    def derived(self, line_size: int) -> tuple[Sequence[int], Sequence[int]]:
        """``(first_line, n_lines)`` columns for ``line_size``.

        Computed once per instance and memoised (the stock sizes at
        compile time).  The arithmetic is exactly the engine's historical per-record code::

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
        first_line = array("q")
        n_lines = array("q")
        append_first = first_line.append
        append_n = n_lines.append
        branch_pc = self._columns["branch_pc"]
        branch_len = self._columns["branch_len"]
        block_start = self._columns["block_start"]
        for index in range(self.n_records):
            first = block_start[index] & line_mask
            last = (branch_pc[index] + branch_len[index] - 1) & line_mask
            append_first(first)
            append_n((last - first) // line_size + 1)
        self._derived[line_size] = (first_line, n_lines)
        return self._derived[line_size]

    def decode_table(self, line_size: int) -> TraceDecodeTable:
        """The memoised :class:`TraceDecodeTable` for ``line_size``.

        Built once per (instance, line size) -- for the stock sizes at
        compile time when the batched kernel is enabled, lazily
        otherwise -- and shared by every lane replaying this trace.
        """
        table = self._decode_tables.get(line_size)
        if table is None:
            if PROFILER.enabled:
                with PROFILER.section("trace.decode_table"):
                    table = TraceDecodeTable(self, line_size)
            else:
                table = TraceDecodeTable(self, line_size)
            self._decode_tables[line_size] = table
        return table

    def period(self) -> tuple[int, int] | None:
        """``(period, preamble)`` of the column stream, or None.

        Record ``i`` equals record ``i + period`` (across every core
        column) for all ``i >= preamble``, and at least two full
        periods follow the preamble.  Detected once per instance and
        cached; the fast-forward layer and ``repro workloads period``
        both read it from here.
        """
        if self._period_cache is not False:
            return self._period_cache
        with PROFILER.section("trace.period"):
            self._period_cache = _period_of_columns(
                self._columns, self.n_records)
        return self._period_cache

    def records(self) -> list[BlockRecord]:
        """Re-materialise the object representation (tests, tooling)."""
        cols = [self._columns[name] for name in CORE_COLUMNS]
        kinds = KIND_BY_CODE
        out = []
        for i in range(self.n_records):
            (block_start, n_instr, branch_pc, branch_len, kind, taken,
             target, fallthrough, next_pc) = (col[i] for col in cols)
            out.append(BlockRecord(
                block_start=block_start, n_instr=n_instr,
                branch_pc=branch_pc, branch_len=branch_len,
                kind=kinds[kind], taken=bool(taken), target=target,
                fallthrough=fallthrough, next_pc=next_pc))
        return out

    def __len__(self) -> int:
        return self.n_records


def compile_trace(records: Iterable[BlockRecord],
                  line_sizes: Sequence[int] = DEFAULT_LINE_SIZES,
                  ) -> CompiledTrace:
    """Convenience wrapper over :meth:`CompiledTrace.from_records`."""
    return CompiledTrace.from_records(records, line_sizes=line_sizes)
