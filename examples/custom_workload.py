#!/usr/bin/env python3
"""Build a custom workload profile and measure Skia on it.

Shows the public workload API end to end: define a
:class:`~repro.workloads.profiles.WorkloadProfile` for a hypothetical
interpreter-style application (big dispatch fan-out, small handlers,
heavy call/return traffic), generate its program and trace, and sweep
the SBB budget to find the saturation point -- the Figure 17 (bottom)
methodology applied to your own workload.

Run:
    python examples/custom_workload.py
"""

from repro import FrontEndConfig, FrontEndSimulator, SkiaConfig
from repro.workloads.codegen import ProgramGenerator
from repro.workloads.compiled import CompiledTrace
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.trace import TraceGenerator

INTERPRETER = WorkloadProfile(
    name="my-interpreter",
    suite="custom",
    # A bytecode interpreter: ~600 opcode handlers, most cold.
    n_handlers=600,
    n_lib_funcs=700,
    handler_blocks=(4, 9),
    lib_blocks=(2, 4),
    block_instrs=(1, 5),
    handler_zipf_s=0.8,
    # Opcode streams repeat locally (runs of the same opcode are short).
    dispatch_run_range=(1, 2),
    # Call/return heavy, like the paper's voter/sibench.
    p_cond_block=0.28, p_call_block=0.36, p_jmp_block=0.18,
    p_early_ret_block=0.10,
)

RECORDS, WARMUP = 120_000, 40_000


def main() -> None:
    print(f"Generating custom workload {INTERPRETER.name!r}...")
    program = ProgramGenerator(INTERPRETER, seed=42).generate()
    print(program.describe())
    generator = TraceGenerator(
        program, seed=42,
        dispatch_run_range=INTERPRETER.dispatch_run_range)
    trace = CompiledTrace.from_stream(generator.columns,
                                      *generator.stream(RECORDS))

    def simulate(config: FrontEndConfig):
        return FrontEndSimulator(program, config).run_compiled(
            trace, warmup=WARMUP)

    baseline = simulate(FrontEndConfig())
    print(f"\nbaseline: IPC={baseline.ipc:.3f} "
          f"L1-I MPKI={baseline.l1i_mpki:.1f} "
          f"BTB miss MPKI={baseline.btb_miss_mpki:.2f} "
          f"(L1-resident fraction {baseline.btb_miss_l1i_hit_fraction:.0%})")

    print("\nSBB budget sweep (Figure 17 bottom methodology):")
    print(f"{'scale':>6s} {'state':>9s} {'IPC':>7s} {'gain':>7s} "
          f"{'SBB hits':>9s}")
    for factor in (0.25, 0.5, 1.0, 2.0, 4.0):
        skia_config = SkiaConfig().scaled(factor)
        stats = simulate(FrontEndConfig(skia=skia_config))
        gain = stats.ipc / baseline.ipc - 1
        print(f"{factor:>5.2f}x {skia_config.total_size_kib:>8.2f}K "
              f"{stats.ipc:>7.3f} {gain:>7.2%} {stats.total_sbb_hits:>9d}")

    print("\nReading: gains should grow with SBB capacity and flatten once")
    print("the recurring shadow-branch working set fits (saturation).")


if __name__ == "__main__":
    main()
