"""The benchmark's four workloads: fixed cell grids at fixed scales.

A workload is a grid of ``Cell(workload, config)`` points plus the
:class:`~repro.harness.scale.Scale` it runs at.  The command-line seed
is the program seed (``ExperimentRunner(seed=...)``), so every seed
generates its own programs and traces and the simulator receives only
those generated inputs.

Record counts are smaller than the Figure-14 defaults so that one run
of every workload fits the benchmark's per-run time budget with at
least three cold repetitions; program generation, not record count,
dominates set-up, so shrinking records keeps every layer exercised.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frontend.config import FrontEndConfig
from repro.harness.experiments import exhibit_cells
from repro.harness.parallel import Cell
from repro.harness.scale import Scale


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``replay_passes`` is the number of warm-store passes over the grid
    in each repetition.  With ``store_fill`` set, the grid is simulated
    during set-up and the timed phase is the replay itself (the
    ``warm-replay`` workload); otherwise the timed phase is the cold
    simulation and the replay passes follow it.  ``oracles`` names the
    engines on which the correctness check recomputes one seed-chosen
    cell per generated workload: ``object`` is
    ``FrontEndSimulator.run_compiled``, ``kernel`` the batched lane
    kernel, ``kernel-no-ff`` the kernel with fast-forward switched off.
    ``program_seeds``, when set, is the list the run's seed indexes to
    pick the program seed; otherwise the run's seed is the program seed.
    """

    name: str
    why: str
    scale: Scale
    cells: tuple[Cell, ...]
    replay_passes: int
    oracles: tuple[str, ...]
    attribution: bool = False
    store_fill: bool = False
    program_seeds: tuple[int, ...] = ()

    @property
    def grid_records(self) -> int:
        """Trace records one pass over the grid covers (warm-up included)."""
        return len(self.cells) * self.scale.records

    def program_seed(self, seed: int) -> int:
        if not self.program_seeds:
            return seed
        return self.program_seeds[seed % len(self.program_seeds)]

    def workload_names(self) -> list[str]:
        """The distinct generated workloads, in grid order."""
        return list(dict.fromkeys(cell.workload for cell in self.cells))


def config_label(config: FrontEndConfig) -> str:
    """Short name of a grid configuration (``base``, ``skia-head``, ...)."""
    skia = config.skia
    if skia.enabled:
        if skia.decode_heads and skia.decode_tails:
            return "skia"
        return "skia-head" if skia.decode_heads else "skia-tail"
    if config.btb_entries == FrontEndConfig().btb_entries:
        return "base"
    return f"btb-{config.btb_entries // 1024}k"


def _fig14(workloads) -> list[Cell]:
    """base, skia-head, skia-tail and skia (head+tail) per workload."""
    return exhibit_cells("fig14", workloads=tuple(workloads))


def _btb(workloads, sizes) -> list[Cell]:
    base = FrontEndConfig()
    return [Cell(workload, base.with_btb_entries(entries))
            for entries in sizes for workload in workloads]


def _base_and_skia(workloads) -> list[Cell]:
    return [cell for cell in _fig14(workloads)
            if config_label(cell.config) in ("base", "skia")]


_REPLAYED = ("voter", "tatp", "kafka", "finagle-chirper")

#: steady-stream program seeds whose 200k-record traces the period
#: detector (``CompiledTrace.period``) recognises.  Every steady-stream
#: trace is periodic, but for about a quarter of seeds (4, 6, 8, 18, ...
#: in 0-47) the 16-record tail needle recurs more than the detector's 8
#: candidate attempts within one period, so fast-forward never engages
#: and the run is ~3x slower; drawing from this list keeps ``steady-ff``
#: a fast-forward workload on every seed instead of a bimodal one.
_STEADY_SEEDS = (0, 1, 2, 3, 5, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17, 19,
                 21, 23, 24, 26, 27, 29, 30, 31, 32, 33, 36, 37, 38, 41,
                 42, 43)

WORKLOADS: dict[str, Workload] = {workload.name: workload for workload in (
    Workload(
        name="fig14-oltp",
        why="Fig-14 grid on the batched lane kernel; fast-forward probes but "
            "never skips here, so it is the no-change control for "
            "fast-forward work",
        scale=Scale("bench-fig14", records=20_000, warmup=6_000),
        cells=tuple(_fig14(("voter", "tatp", "kafka"))),
        replay_passes=20,
        oracles=("object",),
    ),
    Workload(
        name="attrib-oltp",
        why="attribution cells fall back to the per-record run_compiled "
            "loop with event tracing; the no-change control for kernel "
            "work",
        scale=Scale("bench-attrib", records=12_000, warmup=4_000),
        cells=tuple(_base_and_skia(("voter", "kafka"))),
        replay_passes=15,
        oracles=("kernel",),
        attribution=True,
    ),
    Workload(
        name="steady-ff",
        why="periodic trace where fast-forward skips most records; time "
            "goes to trace generation and lane-row fusion per BTB geometry",
        scale=Scale("bench-steady", records=200_000, warmup=20_000),
        cells=tuple(_fig14(("steady-stream",))
                    + _btb(("steady-stream",), (2048, 32768))),
        replay_passes=20,
        oracles=("kernel-no-ff", "object"),
        program_seeds=_STEADY_SEEDS,
    ),
    Workload(
        name="warm-replay",
        why="re-rendering figures from a warm result store: key hashing, "
            "file reads and JSON decoding, no simulation",
        scale=Scale("bench-replay", records=3_000, warmup=1_000),
        cells=tuple(_fig14(_REPLAYED)
                    + _btb(_REPLAYED, (2048, 4096, 16384, 32768))),
        replay_passes=60,
        oracles=("object",),
        store_fill=True,
    ),
)}
