"""Section profiler: nesting, self-time math, disabled path, span file."""

import json
import os

from repro.obs.profiler import PROFILER, SectionProfiler, span_row
from repro.obs.spans import read_spans
from tests.conftest import span_totals


class FakeClock:
    """Deterministic nanosecond clock advanced explicitly by tests."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def make() -> tuple[SectionProfiler, FakeClock]:
    clock = FakeClock()
    return SectionProfiler(enabled=True, clock=clock), clock


def rollup(profiler: SectionProfiler) -> dict:
    return span_totals(map(span_row, profiler.spans))


def self_ns(profiler: SectionProfiler, name: str) -> list[int]:
    return [span_row(span)["self_ns"] for span in profiler.spans
            if span[0] == name]


class TestNesting:
    def test_flat_section(self):
        profiler, clock = make()
        with profiler.section("a"):
            clock.advance(100)
        assert profiler.spans == [("a", 0, 100, 100, None, os.getpid())]
        assert rollup(profiler)["a"] == {"calls": 1, "total_ns": 100,
                                         "exclusive_ns": 100}

    def test_child_time_is_excluded_from_parent(self):
        profiler, clock = make()
        with profiler.section("parent"):
            clock.advance(10)
            with profiler.section("child"):
                clock.advance(70)
            clock.advance(20)
        assert self_ns(profiler, "parent") == [30]
        assert self_ns(profiler, "child") == [70]
        totals = rollup(profiler)
        assert totals["parent"]["total_ns"] == 100
        assert totals["parent"]["exclusive_ns"] == 30
        assert totals["child"]["total_ns"] == 70
        assert totals["child"]["exclusive_ns"] == 70

    def test_siblings_both_subtract(self):
        profiler, clock = make()
        with profiler.section("p"):
            with profiler.section("a"):
                clock.advance(40)
            with profiler.section("b"):
                clock.advance(50)
            clock.advance(10)
        assert self_ns(profiler, "p") == [10]
        assert rollup(profiler)["p"]["exclusive_ns"] == 10

    def test_exclusive_times_sum_to_wall_clock(self):
        profiler, clock = make()
        with profiler.section("outer"):
            clock.advance(5)
            for _ in range(3):
                with profiler.section("inner"):
                    clock.advance(11)
        assert sum(span_row(span)["self_ns"]
                   for span in profiler.spans) == clock.now
        total_exclusive = sum(stats["exclusive_ns"]
                              for stats in rollup(profiler).values())
        assert total_exclusive == clock.now

    def test_calls_accumulate(self):
        profiler, clock = make()
        for _ in range(5):
            with profiler.section("s"):
                clock.advance(1)
        assert rollup(profiler)["s"]["calls"] == 5
        assert rollup(profiler)["s"]["total_ns"] == 5


class TestDisabled:
    def test_disabled_records_nothing(self):
        profiler = SectionProfiler(enabled=False)
        with profiler.section("x"):
            pass
        assert profiler.spans == []

    def test_disabled_returns_shared_noop(self):
        profiler = SectionProfiler(enabled=False)
        assert profiler.section("a") is profiler.section("b")

    def test_module_profiler_disabled_by_default(self):
        # Only the run ledger and bench_run turn the global profiler on;
        # the instrumentation in the SBD/store/runner must be inert.
        assert PROFILER.enabled is False


class TestReporting:
    def test_snapshot_is_json_safe_and_sorted(self):
        profiler, clock = make()
        with profiler.section("b"):
            clock.advance(2)
        with profiler.section("a"):
            clock.advance(1)
        totals = rollup(profiler)
        assert list(totals) == ["a", "b"]
        assert json.loads(json.dumps(totals)) == totals
        assert totals["b"] == {"calls": 1, "total_ns": 2,
                               "exclusive_ns": 2}

    def test_reset(self, tmp_path):
        # Detaching ends a run: its spans live in the file, not memory.
        profiler, clock = make()
        profiler.attach(tmp_path / "spans.jsonl")
        with profiler.section("x"):
            clock.advance(1)
        profiler.detach()
        assert profiler.spans == []
        assert profiler.path is None
        assert [row["name"] for row in read_spans(tmp_path / "spans.jsonl")
                ] == ["x"]


class TestAttach:
    def test_worker_attach_drops_inherited_spans(self, tmp_path):
        # A forked pool worker inherits the parent's recorded spans and
        # its still-open sections; attaching must drop both, so every
        # span is written once, by the process that timed it.
        profiler, clock = make()
        with profiler.section("parent.done"):
            clock.advance(3)
        outer = profiler.section("parent.open")
        outer.__enter__()
        clock.advance(5)
        profiler.set_cell("parent-cell")
        profiler.attach(tmp_path / "spans.jsonl")
        assert profiler.spans == []
        assert profiler._stack == []
        with profiler.section("worker"):
            clock.advance(7)
        assert profiler.spans == [("worker", 8, 7, 7, None, os.getpid())]
        assert profiler.flush() == 1
        assert [row["name"] for row in read_spans(tmp_path / "spans.jsonl")
                ] == ["worker"]
