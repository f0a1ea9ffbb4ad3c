"""Synthetic workload substrate.

The paper evaluates Skia on 16 commercial client/server workloads with
multi-hundred-kilobyte instruction footprints (Table 2).  Those binaries
and their gem5 checkpoints are not reproducible offline, so this package
generates synthetic *programs* (real byte images in the `repro.isa`
encoding, with functions, basic blocks and patched branch targets) and
*control-flow traces* (the correct-path oracle the front-end simulator
replays), with one calibrated profile per paper workload.

The programs are built around a dispatch loop -- the dominant structure of
the paper's server workloads: a hot main loop indirect-calls into a large,
Zipf-weighted pool of handler functions, which call into shared library
helpers.  The Zipf tail produces exactly the paper's "cold branches":
branches that recur throughout execution but are separated by enough other
branches to be evicted from the BTB between recurrences, while their cache
lines stay hot because hot and cold functions are interleaved in layout and
share lines.
"""

from repro.workloads.program import BasicBlock, Function, Program
from repro.workloads.codegen import ProgramGenerator
from repro.workloads.trace import TraceGenerator
from repro.workloads.profiles import (
    PROFILES,
    WORKLOAD_NAMES,
    WorkloadProfile,
    get_profile,
)
from repro.workloads.bolt import bolt_optimize
from repro.workloads.cache import WorkloadCache, build_program, build_trace
from repro.workloads.compiled import CompiledTrace
from repro.workloads.analysis import characterise, shadow_geometry

__all__ = [
    "BasicBlock",
    "Function",
    "Program",
    "ProgramGenerator",
    "TraceGenerator",
    "PROFILES",
    "WORKLOAD_NAMES",
    "WorkloadProfile",
    "get_profile",
    "bolt_optimize",
    "WorkloadCache",
    "CompiledTrace",
    "build_program",
    "build_trace",
    "characterise",
    "shadow_geometry",
]
