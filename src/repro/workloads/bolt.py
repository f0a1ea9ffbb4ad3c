"""BOLT-like profile-guided layout optimisation (Section 6.1.4).

BOLT reorders functions so hot code is packed together, improving L1-I and
BTB locality.  The pass here mirrors that at function granularity: it
profiles a short trace, sorts functions by measured invocation count (hot
first), re-lays-out and re-patches the image.  The result is a new
:class:`~repro.workloads.program.Program` sharing the same functions and
labels, so traces generated for the bolted program use the new addresses.

The paper applies BOLT only to verilator (the one pre-compiled native
binary in its suite); we expose the pass for any synthetic workload so the
bolted-vs-pre-bolt experiment can be reproduced.
"""

from __future__ import annotations

import copy
import random
from collections import Counter
from itertools import islice

from repro.isa.encoder import Encoder
from repro.workloads.layout import lay_out
from repro.workloads.program import Program
from repro.workloads.trace import TraceGenerator


def profile_function_heat(program: Program, seed: int = 0,
                          sample_records: int = 40_000) -> dict[str, int]:
    """Count block executions per function over a short profiling trace.

    The trace is read as a block-index stream: per-block execution
    counts by index, summed over each function's blocks (block indices
    follow layout order, function by function).
    """
    blocks, _ = TraceGenerator(program, seed=seed).stream(sample_records)
    counts = Counter(islice(blocks, sample_records))
    heat: dict[str, int] = {function.name: 0 for function in program.functions}
    index = 0
    for function in program.functions:
        following = index + len(function.blocks)
        heat[function.name] += sum(counts[block]
                                   for block in range(index, following))
        index = following
    return heat


def bolt_optimize(program: Program, seed: int = 0,
                  alignment: int = 16,
                  sample_records: int = 40_000) -> Program:
    """Return a hot-first re-laid-out copy of ``program``.

    Function bodies (and block order within functions) are untouched --
    like BOLT's function-reordering mode -- so the CFG and labels are
    preserved; only addresses change.  Hot functions are aligned and
    packed first, pushing cold functions out of the hot lines.
    """
    heat = profile_function_heat(program, seed=seed,
                                 sample_records=sample_records)
    # Re-layout mutates instruction addresses, so work on a deep copy --
    # the input program (and any traces generated from it) stay valid.
    functions = copy.deepcopy(program.functions)
    entry_function = next(f for f in functions
                          if f.blocks[0].label == program.entry_label)
    others = [f for f in functions if f is not entry_function]
    others.sort(key=lambda function: heat.get(function.name, 0), reverse=True)
    ordered = [entry_function] + others

    encoder = Encoder()
    rng = random.Random(seed ^ 0xB017)
    image = lay_out(ordered, program.base_address, alignment, encoder, rng)
    return Program(functions=ordered, image=image,
                   base_address=program.base_address,
                   entry_label=program.entry_label,
                   name=f"{program.name}+bolt")
