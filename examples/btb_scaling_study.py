#!/usr/bin/env python3
"""BTB scaling study (the paper's Figure 3, for one workload).

Sweeps BTB sizes and compares four front-ends: plain BTB, BTB plus the
SBB's 12.25KB handed to the BTB, BTB plus Skia's SBB, and an infinite
BTB -- then draws an ASCII chart of normalised performance.

Run:
    python examples/btb_scaling_study.py [workload]
"""

import sys

from repro import (FrontEndConfig, FrontEndSimulator, SkiaConfig,
                   build_program, build_trace)

BTB_SIZES = (2048, 4096, 8192, 16384)
RECORDS, WARMUP = 160_000, 50_000


def run_all(workload: str) -> dict[str, dict[int, float]]:
    program = build_program(workload)
    trace = build_trace(workload, RECORDS)

    def ipc(config: FrontEndConfig) -> float:
        return FrontEndSimulator(program, config).run_compiled(
            trace, warmup=WARMUP).ipc

    results: dict[str, dict[int, float]] = {
        "BTB": {}, "BTB+12.25KB": {}, "BTB+SBB": {}}
    for entries in BTB_SIZES:
        base = FrontEndConfig().with_btb_entries(entries)
        results["BTB"][entries] = ipc(base)
        results["BTB+12.25KB"][entries] = ipc(
            base.with_extra_btb_state(12.25 * 1024))
        results["BTB+SBB"][entries] = ipc(base.with_skia(SkiaConfig()))
    results["Infinite"] = {entries: ipc(
        FrontEndConfig().with_btb_entries(1 << 22, infinite=True))
        for entries in BTB_SIZES[:1]}
    return results


def ascii_chart(results: dict) -> str:
    reference = results["BTB"][BTB_SIZES[0]]
    lines = [f"{'config':14s} " + "".join(f"{s//1024:>7d}K" for s in BTB_SIZES),
             "-" * (15 + 8 * len(BTB_SIZES))]
    for name in ("BTB", "BTB+12.25KB", "BTB+SBB"):
        cells = "".join(f"{results[name][s] / reference:8.4f}"
                        for s in BTB_SIZES)
        lines.append(f"{name:14s} {cells}")
    infinite = results["Infinite"][BTB_SIZES[0]] / reference
    lines.append(f"{'Infinite BTB':14s} {infinite:8.4f} (size-independent)")

    lines.append("\nspeedup of BTB+SBB over plain BTB per size:")
    for entries in BTB_SIZES:
        gain = results["BTB+SBB"][entries] / results["BTB"][entries] - 1
        bar = "#" * max(1, round(gain * 400))
        lines.append(f"  {entries // 1024:>3d}K  {gain:6.2%}  {bar}")
    return "\n".join(lines)


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "sibench"
    print(f"BTB scaling study on {workload} "
          f"(normalised to the {BTB_SIZES[0] // 1024}K plain BTB)\n")
    results = run_all(workload)
    print(ascii_chart(results))
    print("\nPaper shape (Figure 3): BTB+SBB roughly doubles the benefit of")
    print("spending the same 12.25KB on BTB capacity, at every size until")
    print("saturation; the infinite BTB is the ceiling.")


if __name__ == "__main__":
    main()
