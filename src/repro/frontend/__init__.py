"""Decoupled FDIP front-end simulator.

Models the generic decoupled front-end of the paper's Figure 4: a Branch
Prediction Unit (BTB + TAGE-lite conditional predictor + ITTAGE-lite
indirect predictor + return address stack) feeding a Fetch Target Queue,
FDIP prefetching FTQ lines into a three-level instruction cache hierarchy,
a fetch/decode pipeline with decode-early and execute-late resteers, and
wrong-path fetch that pollutes the L1-I.  The back-end is abstracted into
a retire-bandwidth model, which is sufficient for the *relative* IPC
measurements the paper reports (its workloads are front-end bound).

The simulator is timeline-algebraic: it replays the correct-path trace one
basic block at a time, maintaining per-stage clocks (IAG, fetch, decode,
retire) and charging resteer bubbles and cache-fill latencies where a
cycle-by-cycle gem5 model would stall.  See DESIGN.md section 5.
"""

from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.stats import SimStats
from repro.frontend.btb import BranchTargetBuffer, BTBEntry
from repro.frontend.caches import CacheHierarchy, SetAssociativeCache
from repro.frontend.predictor import ITTageLite, LoopPredictor, TageLite
from repro.frontend.ras import ReturnAddressStack
from repro.frontend.comparators import AirBTBLite, BoomerangLite
from repro.frontend.bpu import BranchPredictionUnit, Prediction
from repro.frontend.engine import FrontEndSimulator

__all__ = [
    "FrontEndConfig",
    "SkiaConfig",
    "SimStats",
    "BranchTargetBuffer",
    "BTBEntry",
    "CacheHierarchy",
    "SetAssociativeCache",
    "TageLite",
    "ITTageLite",
    "LoopPredictor",
    "ReturnAddressStack",
    "AirBTBLite",
    "BoomerangLite",
    "BranchPredictionUnit",
    "Prediction",
    "FrontEndSimulator",
]
