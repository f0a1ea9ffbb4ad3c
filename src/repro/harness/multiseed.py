"""Multi-seed experiment aggregation.

Synthetic workloads are stochastic in (program seed, trace seed); a
credible result reports stability across seeds.  This module runs a
metric over several seeds and reports mean, standard deviation and range
-- used by the seed-stability benchmark and available to users studying
their own configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.frontend.config import FrontEndConfig
from repro.frontend.stats import SimStats
from repro.harness.parallel import Cell
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import Scale, current_scale
from repro.workloads.cache import WorkloadCache


@dataclass(frozen=True)
class SeedSweepResult:
    """Per-seed values plus summary statistics."""

    values: tuple[float, ...]
    seeds: tuple[int, ...]

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mean = self.mean
        variance = (sum((value - mean) ** 2 for value in self.values)
                    / (len(self.values) - 1))
        return math.sqrt(variance)

    @property
    def minimum(self) -> float:
        return min(self.values)

    @property
    def maximum(self) -> float:
        return max(self.values)

    def render(self, label: str = "metric") -> str:
        return (f"{label}: mean={self.mean:.4f} std={self.std:.4f} "
                f"range=[{self.minimum:.4f}, {self.maximum:.4f}] "
                f"over seeds {list(self.seeds)}")


def sweep_seeds(workload: str, metric: Callable[[SimStats, SimStats], float],
                config_a: FrontEndConfig, config_b: FrontEndConfig,
                seeds: tuple[int, ...] = (0, 1, 2),
                scale: Scale | None = None,
                jobs: int | None = 1) -> SeedSweepResult:
    """Evaluate ``metric(stats_a, stats_b)`` per seed.

    Each seed gets its own program *and* trace (both derive from the
    seed), so the sweep measures workload-generation variance, not just
    trace noise.  The 2 x len(seeds) cells run as one
    :meth:`~repro.harness.runner.ExperimentRunner.run_cells` batch, so
    ``jobs != 1`` fans the seeds out over a process pool with results
    bit-identical to the serial sweep.
    """
    cells = [Cell(workload, config, seed)
             for seed in seeds
             for config in (config_a, config_b)]
    runner = ExperimentRunner(scale=scale or current_scale(),
                              cache=WorkloadCache())
    stats = runner.run_cells(cells, jobs=jobs)
    values = [metric(stats[index], stats[index + 1])
              for index in range(0, len(stats), 2)]
    return SeedSweepResult(values=tuple(values), seeds=tuple(seeds))


def speedup_metric(base: SimStats, enhanced: SimStats) -> float:
    """The Figure 14 metric: IPC gain of ``enhanced`` over ``base``."""
    return enhanced.ipc / base.ipc - 1.0
