"""Shared fixtures: a small program + trace that many test modules reuse.

Session-scoped because program generation is the expensive part; tests
never mutate these objects (simulators copy what they need).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.frontend.engine import FrontEndSimulator
from repro.isa.encoder import Encoder
from repro.workloads.codegen import ProgramGenerator
from repro.workloads.compiled import CompiledTrace
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.trace import TraceGenerator

#: A deliberately tiny profile so unit/integration tests run in seconds.
MICRO_PROFILE = WorkloadProfile(
    name="micro",
    n_handlers=40,
    n_lib_funcs=30,
    handler_blocks=(4, 8),
    lib_blocks=(2, 4),
    block_instrs=(1, 5),
)


@pytest.fixture(scope="session")
def micro_profile() -> WorkloadProfile:
    return MICRO_PROFILE


@pytest.fixture(scope="session")
def micro_program():
    return ProgramGenerator(MICRO_PROFILE, seed=7).generate()


@pytest.fixture(scope="session")
def micro_trace(micro_program) -> CompiledTrace:
    return generate_trace(micro_program, 8_000, seed=7)


@pytest.fixture(autouse=True)
def _no_run_ledger(monkeypatch):
    """Disable the run ledger by default.

    CLI entry points open a run ledger under ``.repro_cache/runs/``;
    left enabled, every test that drives ``main()`` would litter the
    repository working copy with run directories.  Ledger tests opt
    back in with ``monkeypatch.setenv("REPRO_LEDGER", "1")`` (their own
    setenv overrides this one) and point ``REPRO_CACHE_DIR`` at a
    tmp path, or call ``start_run(root=tmp_path)`` directly.
    """
    monkeypatch.setenv("REPRO_LEDGER", "0")


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture()
def encoder() -> Encoder:
    return Encoder()


def make_profile(**overrides) -> WorkloadProfile:
    """Micro profile with overrides (helper for workload tests)."""
    return dataclasses.replace(MICRO_PROFILE, **overrides)


def generate_trace(program, n_records: int, seed: int = 0,
                   **kwargs) -> CompiledTrace:
    """``program``'s first ``n_records`` trace records, compiled."""
    generator = TraceGenerator(program, seed=seed, **kwargs)
    return CompiledTrace.from_stream(generator.columns,
                                     *generator.stream(n_records))


def simulate(program, trace, config, warmup: int = 0):
    """A fresh simulator's ``run_compiled`` replay of ``trace``."""
    return FrontEndSimulator(program, config).run_compiled(trace,
                                                           warmup=warmup)


def span_totals(rows) -> dict[str, dict[str, int]]:
    """Per-section ``{calls, total_ns, exclusive_ns}`` over span rows,
    sorted by section name."""
    totals: dict[str, dict[str, int]] = {}
    for row in rows:
        entry = totals.setdefault(
            str(row["name"]), {"calls": 0, "total_ns": 0, "exclusive_ns": 0})
        entry["calls"] += 1
        entry["total_ns"] += int(row["dur_ns"])
        entry["exclusive_ns"] += int(row["self_ns"])
    return dict(sorted(totals.items()))
