"""Skia: Exposing Shadow Branches -- a full Python reproduction.

Reproduces the ASPLOS 2025 paper "Exposing Shadow Branches" (Skia):
shadow branch decoding of the unused bytes in FDIP-fetched cache lines,
buffered in a small Shadow Branch Buffer probed in parallel with the BTB.

Layers (bottom-up):

* :mod:`repro.isa`       -- synthetic x86-like variable-length ISA
  (encoder + honest byte decoder);
* :mod:`repro.workloads` -- synthetic programs and control-flow traces
  calibrated per paper workload (Table 2);
* :mod:`repro.frontend`  -- decoupled FDIP front-end simulator (BTB,
  TAGE-lite, ITTAGE-lite, RAS, FTQ, 3-level I-cache, resteer timing);
* :mod:`repro.core`      -- Skia itself: Shadow Branch Decoder + Shadow
  Branch Buffer (the paper's contribution);
* :mod:`repro.harness`   -- experiment functions regenerating every
  table and figure of the paper's evaluation.

Quickstart::

    from repro import quick_compare
    result = quick_compare("voter")
    print(result.render())
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.frontend.stats import SimStats
from repro.workloads.cache import build_program, build_trace
from repro.workloads.profiles import WORKLOAD_NAMES, get_profile

__version__ = "1.0.0"

__all__ = [
    "FrontEndConfig",
    "SkiaConfig",
    "FrontEndSimulator",
    "SimStats",
    "build_program",
    "build_trace",
    "get_profile",
    "WORKLOAD_NAMES",
    "quick_compare",
    "CompareResult",
    "__version__",
]


@dataclass
class CompareResult:
    """Baseline-vs-Skia comparison for one workload."""

    workload: str
    baseline: SimStats
    skia: SimStats

    @property
    def speedup(self) -> float:
        return self.skia.ipc / self.baseline.ipc - 1.0

    def render(self) -> str:
        base, skia = self.baseline, self.skia
        lines = [
            f"workload            : {self.workload}",
            f"baseline IPC        : {base.ipc:.3f}",
            f"Skia IPC            : {skia.ipc:.3f}",
            f"speedup             : {self.speedup:.2%}",
            f"L1-I MPKI           : {base.l1i_mpki:.1f}",
            f"BTB miss MPKI       : {base.btb_miss_mpki:.2f}",
            f"misses w/ L1-I hit  : {base.btb_miss_l1i_hit_fraction:.0%}",
            f"SBB hits (U/R)      : {skia.sbb_hits_u}/{skia.sbb_hits_r}",
            f"decode resteers     : {base.decode_resteers} -> "
            f"{skia.decode_resteers}",
            f"bogus insertion rate: {skia.bogus_insertion_rate:.6f}",
        ]
        return "\n".join(lines)


def quick_compare(workload: str = "voter", records: int = 160_000,
                  warmup: int = 50_000, seed: int = 0) -> CompareResult:
    """Run baseline FDIP and FDIP+Skia on one workload and compare.

    The one-call entry point used by ``examples/quickstart.py``.
    """
    program = build_program(workload, seed=seed)
    trace = build_trace(workload, records, seed=seed)
    baseline = FrontEndSimulator(program, FrontEndConfig(),
                                 seed=seed).run_compiled(trace, warmup=warmup)
    skia = FrontEndSimulator(program, FrontEndConfig(skia=SkiaConfig()),
                             seed=seed).run_compiled(trace, warmup=warmup)
    return CompareResult(workload=workload, baseline=baseline, skia=skia)
