#!/usr/bin/env python3
"""Characterise a workload the way the paper characterises its suite.

Prints the static/dynamic branch mix, the cold-branch reuse profile (the
paper's §1 definition of "cold": recurring branches whose reuse distance
exceeds the BTB), the shadow-region geometry, and a disassembly of one
cache line with its head/tail shadow zones annotated (a textual
Figure 5).

Run:
    python examples/workload_report.py [workload]
"""

import sys

from repro.isa.disasm import disassemble_line_region
from repro.workloads import WORKLOAD_NAMES, build_program, build_trace
from repro.workloads.analysis import characterise, shadow_geometry
from repro.workloads.program import LINE_SIZE

RECORDS = 60_000


def pick_annotated_line(trace):
    """A line that some trace record enters mid-way and exits by a taken
    branch -- i.e. one with both shadow zones."""
    for block_start, branch_pc, branch_len, taken in zip(
            trace.column("block_start"), trace.column("branch_pc"),
            trace.column("branch_len"), trace.taken):
        entry_offset = block_start % LINE_SIZE
        exit_pc = branch_pc + branch_len
        same_line = (block_start // LINE_SIZE
                     == (exit_pc - 1) // LINE_SIZE)
        if taken and entry_offset > 8 and same_line \
                and exit_pc % LINE_SIZE not in (0,) \
                and exit_pc % LINE_SIZE < 48:
            line_pc = block_start - entry_offset
            return line_pc, entry_offset, exit_pc % LINE_SIZE
    return None


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "tpcc"
    if workload not in WORKLOAD_NAMES:
        raise SystemExit(f"unknown workload {workload!r}")

    program = build_program(workload)
    trace = build_trace(workload, RECORDS)

    print(characterise(program, trace).render())

    geometry = shadow_geometry(program)
    print(f"\nshadow geometry (static): {geometry.total_branches} branches;"
          f" {geometry.tail_fraction:.0%} have a same-line earlier exit"
          f" (tail-shadow candidates);"
          f" {geometry.eligible_fraction:.0%} SBB-eligible")

    found = pick_annotated_line(trace)
    if found:
        line_pc, entry_offset, exit_offset = found
        print(f"\nFigure-5-style view of line {line_pc:#x} "
              f"(entry at +{entry_offset}, taken exit at +{exit_offset}):\n")
        print(disassemble_line_region(
            program.image, program.base_address, line_pc,
            entry_offset=entry_offset, exit_offset=exit_offset))
        print("\nBranches in HEAD/TAIL zones are the shadow branches Skia")
        print("decodes into the SBB without waiting for them to execute.")


if __name__ == "__main__":
    main()
