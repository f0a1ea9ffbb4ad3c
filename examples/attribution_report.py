#!/usr/bin/env python3
"""Attribution walkthrough: who causes the BTB misses, who gets rescued.

Runs one workload twice -- baseline front-end and FDIP+Skia -- with the
per-branch/per-line attribution layer attached, then:

1. prints the per-PC reconstruction of the paper's headline fraction
   (what share of BTB misses land in shadow bytes of L1I-resident
   lines, Figures 1/15) and verifies it equals the aggregate counter
   *exactly*;
2. shows the top offender branches by resteer cycles, with their
   static head/tail shadow position and U-/R-SBB rescue split;
3. shows the cache lines with the most unrescued misses and how many
   of their shadow bytes the SBD actually decoded;
4. diffs Skia against the baseline per branch -- the improvement shows
   up as negative cycle deltas on the rescued PCs.

Run:
    python examples/attribution_report.py [workload]
"""

import sys

from repro import WORKLOAD_NAMES
from repro.frontend.config import baseline_config, skia_config
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import SCALES
from repro.obs import AttributionAggregator, diff_attributions


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "voter"
    if workload not in WORKLOAD_NAMES:
        known = ", ".join(WORKLOAD_NAMES)
        raise SystemExit(f"unknown workload {workload!r}; choose from: {known}")

    runner = ExperimentRunner(scale=SCALES["smoke"], store=None,
                              record_attribution=True)

    def attributed(config):
        stats = runner.run(workload, config)
        return stats, AttributionAggregator.from_jsonable(
            runner.attribution_for(workload, config))

    print(f"Simulating {workload} with attribution (baseline, then Skia)...")
    _, base = attributed(baseline_config())
    skia_stats, skia = attributed(skia_config())

    # -- 1. the Figure 1/15 fraction, per-branch vs aggregate ----------
    totals = skia.totals()
    print()
    print(f"{int(totals['branches'])} static branches over "
          f"{int(totals['lines'])} cache lines attributed")
    print(f"shadow-resident BTB-miss fraction: "
          f"{skia.shadow_resident_fraction:.1%} "
          f"(SimStats: {skia_stats.btb_miss_l1i_hit_fraction:.1%})")
    assert skia.shadow_resident_fraction == (
        skia_stats.btb_miss_l1i_hit_fraction), "conservation broken!"

    # -- 2. worst branches ---------------------------------------------
    print()
    print("top 5 branches by resteer cycles (Skia run):")
    print(f"  {'pc':>10}  {'kind':<14} {'shadow':<9} "
          f"{'miss':>5} {'u+r':>7} {'cycles':>8}  top cause")
    for branch in skia.top_branches(5):
        rescued = f"{branch.sbb_hits_u}+{branch.sbb_hits_r}"
        print(f"  0x{branch.pc:08x}  {branch.kind or '?':<14} "
              f"{branch.shadow:<9} {branch.btb_misses:>5} {rescued:>7} "
              f"{branch.cycles:>8.0f}  {branch.top_cause}")

    # -- 3. worst lines ------------------------------------------------
    print()
    print("top 5 cache lines by unrescued misses:")
    print(f"  {'line':>10}  {'missed':>6} {'rescued':>7} "
          f"{'head/tail bytes decoded':>24}")
    for line in skia.top_lines(5):
        print(f"  0x{line.line:08x}  {line.missed:>6} {line.rescued:>7} "
              f"{line.head_bytes:>11} / {line.tail_bytes}")

    # -- 4. the per-branch A/B -----------------------------------------
    diff = diff_attributions(base, skia)
    improved = sum(1 for d in diff.deltas if d.delta_cycles < 0)
    print()
    print(f"Skia vs baseline: {len(diff.deltas)} branches moved, "
          f"{improved} improved, {len(diff.regressions)} regressed "
          f"past thresholds")
    print()
    print("Interpretation: branches whose resteer cycles drop are the")
    print("ones Skia pre-decodes out of the shadows (paper Section 6);")
    print("`repro attrib diff` turns the same comparison into a CI gate.")


if __name__ == "__main__":
    main()
