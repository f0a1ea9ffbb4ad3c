"""Section 7.1 baseline mechanisms."""

import inspect

import pytest

from repro.frontend.comparators import (COMPARATOR_NAMES, COMPARATORS,
                                        AirBTBLite, BoomerangLite, Comparator,
                                        FDIPDepthLite, MicroBTBLite,
                                        build_comparator,
                                        comparator_size_bytes)
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.isa.branch import BranchKind
from tests.conftest import simulate


class TestAirBTBLite:
    def test_record_then_hit_while_resident(self):
        airbtb = AirBTBLite()
        airbtb.record(0x1000, BranchKind.CALL, 0x2000)
        entry = airbtb.lookup(0x1000, line_resident=True)
        assert entry is not None
        assert entry.target == 0x2000

    def test_miss_when_line_evicted(self):
        """The defining property: contents are only usable while the
        line is L1-I resident."""
        airbtb = AirBTBLite()
        airbtb.record(0x1000, BranchKind.CALL, 0x2000)
        assert airbtb.lookup(0x1000, line_resident=False) is None

    def test_never_learns_unexecuted_branches(self):
        """AirBTB has no decode path: a branch that never committed is
        invisible -- the cold-branch blind spot."""
        airbtb = AirBTBLite()
        assert airbtb.lookup(0x5000, line_resident=True) is None

    def test_per_line_capacity(self):
        airbtb = AirBTBLite(entries_per_line=2)
        for offset in (0, 8, 16):
            airbtb.record(0x1000 + offset, BranchKind.CALL, offset)
        assert airbtb.lookup(0x1000, True) is None  # oldest dropped
        assert airbtb.lookup(0x1008, True) is not None
        assert airbtb.lookup(0x1010, True) is not None

    def test_line_lru(self):
        airbtb = AirBTBLite(max_lines=2)
        airbtb.record(0x0000, BranchKind.CALL, 1)
        airbtb.record(0x1000, BranchKind.CALL, 2)
        airbtb.record(0x2000, BranchKind.CALL, 3)
        assert airbtb.lookup(0x0000, True) is None

    def test_update_existing(self):
        airbtb = AirBTBLite()
        airbtb.record(0x1000, BranchKind.DIRECT_COND, 0xA)
        airbtb.record(0x1000, BranchKind.DIRECT_COND, 0xB)
        assert airbtb.lookup(0x1000, True).target == 0xB


class TestBoomerangLite:
    def make(self) -> BoomerangLite:
        line = bytearray(64)
        line[0:2] = bytes([0xEB, 0x10])                     # jmp (exit)
        line[2:7] = bytes([0xE8, 0x20, 0x00, 0x00, 0x00])   # call
        line[7] = 0xC3                                      # ret
        line[8:] = bytes([0x90] * 56)
        return BoomerangLite(bytes(line), base_address=0)

    def test_predecode_fills_buffer(self):
        boomerang = self.make()
        boomerang.on_btb_miss(entry_pc=0)
        assert boomerang.lookup(0, True).kind is BranchKind.DIRECT_UNCOND
        boomerang.on_btb_miss(entry_pc=0)
        assert boomerang.lookup(2, True).kind is BranchKind.CALL

    def test_lookup_consumes_entry(self):
        boomerang = self.make()
        boomerang.on_btb_miss(entry_pc=0)
        assert boomerang.lookup(0, True) is not None
        assert boomerang.lookup(0, True) is None  # migrated away

    def test_forward_only_from_entry(self):
        """Bytes before the entry point are never predecoded -- the
        variable-length limitation Skia's head decoding overcomes."""
        boomerang = self.make()
        boomerang.on_btb_miss(entry_pc=2)
        assert boomerang.lookup(0, True) is None   # jmp before the entry
        assert boomerang.lookup(2, True) is not None

    def test_buffer_fifo(self):
        boomerang = self.make()
        boomerang.buffer_entries = 1
        boomerang.on_btb_miss(entry_pc=0)
        assert boomerang.lookup(0, True) is None  # evicted by later inserts
        assert boomerang.lookup(7, True) is not None

    def test_residency_ignored(self):
        """The prefetch buffer is its own storage: unlike AirBTB, a hit
        does not depend on L1-I residency."""
        boomerang = self.make()
        boomerang.on_btb_miss(entry_pc=0)
        assert boomerang.lookup(0, False) is not None


class TestMicroBTBLite:
    def test_record_then_demand_hit_migrates_line(self):
        micro = MicroBTBLite()
        micro.record(0x1000, BranchKind.CALL, 0x2000)
        micro.record(0x1008, BranchKind.DIRECT_COND, 0x3000)
        # First probe misses the move-in buffer, hits the last level,
        # and batch-fills the whole line group.
        assert micro.lookup(0x1000, True) is not None
        assert micro.line_fills == 1
        # The sibling branch on the same line is now a buffer hit: no
        # second fill needed -- the footprint property.
        assert micro.lookup(0x1008, True) is not None
        assert micro.line_fills == 1

    def test_never_learns_unexecuted_branches(self):
        """Like AirBTB, Micro-BTB only holds committed branches: a cold
        shadow branch is invisible to it."""
        micro = MicroBTBLite()
        assert micro.lookup(0x5000, True) is None
        assert micro.hits == 0

    def test_fill_buffer_line_lru(self):
        micro = MicroBTBLite(fill_lines=2)
        for line in (0x0000, 0x1000, 0x2000):
            micro.record(line, BranchKind.CALL, 1)
            assert micro.lookup(line, True) is not None  # migrate each
        assert micro.line_fills == 3
        # Line 0 was evicted from the move-in buffer but survives in the
        # last level: the next probe re-migrates instead of missing.
        assert micro.lookup(0x0000, True) is not None
        assert micro.line_fills == 4

    def test_last_level_eviction_invalidates_fill_copy(self):
        micro = MicroBTBLite(max_lines=2)
        micro.record(0x0000, BranchKind.CALL, 1)
        assert micro.lookup(0x0000, True) is not None  # migrated
        micro.record(0x1000, BranchKind.CALL, 2)
        micro.record(0x2000, BranchKind.CALL, 3)  # evicts line 0
        assert micro.lookup(0x0000, True) is None

    def test_record_updates_migrated_copy(self):
        micro = MicroBTBLite()
        micro.record(0x1000, BranchKind.DIRECT_COND, 0xA)
        assert micro.lookup(0x1000, True).target == 0xA
        micro.record(0x1000, BranchKind.DIRECT_COND, 0xB)
        assert micro.lookup(0x1000, True).target == 0xB

    def test_size_accounts_both_levels(self):
        micro = MicroBTBLite(max_lines=100, entries_per_line=2,
                             fill_lines=10)
        assert micro.size_bytes == (100 + 10) * 2 * 78 / 8


class TestFDIPDepthLite:
    def make(self, depth: int, lines: int = 4) -> FDIPDepthLite:
        image = bytearray(64 * lines)
        for line in range(lines):
            image[64 * line] = 0xC3  # one ret at the top of each line
            for offset in range(1, 64):
                image[64 * line + offset] = 0x90
        return FDIPDepthLite(bytes(image), base_address=0, depth=depth)

    def test_depth_one_matches_boomerang(self):
        """depth=1 stops at the first line boundary, like BoomerangLite."""
        fdip = self.make(depth=1)
        fdip.on_btb_miss(entry_pc=0)
        assert fdip.lookup(0, True) is not None
        assert fdip.lookup(64, True) is None  # next line untouched

    def test_deeper_walk_covers_more_lines(self):
        fdip = self.make(depth=3)
        fdip.on_btb_miss(entry_pc=0)
        assert fdip.lookup(0, True) is not None
        assert fdip.lookup(64, True) is not None
        assert fdip.lookup(128, True) is not None
        assert fdip.lookup(192, True) is None  # beyond the depth

    def test_walk_clamped_to_image(self):
        fdip = self.make(depth=8, lines=2)  # walk end past the image
        fdip.on_btb_miss(entry_pc=0)
        assert fdip.lookup(64, True) is not None

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            self.make(depth=0)


class TestComparatorProtocol:
    """Satellite: every registered design satisfies one contract, so
    call sites never need defaults or duck-typing again."""

    def _instances(self, micro_program, config=None):
        config = config or FrontEndConfig()
        return {name: build_comparator(name, micro_program, config)
                for name in COMPARATOR_NAMES}

    def test_registry_names_sorted_and_complete(self):
        assert COMPARATOR_NAMES == tuple(sorted(COMPARATORS))
        assert set(COMPARATOR_NAMES) == {"airbtb", "boomerang", "microbtb",
                                         "fdip"}

    def test_every_design_satisfies_protocol(self, micro_program):
        for name, comparator in self._instances(micro_program).items():
            assert isinstance(comparator, Comparator), name
            assert comparator.lookups == 0 and comparator.hits == 0

    def test_lookup_requires_line_resident(self, micro_program):
        """The unified signature: ``line_resident`` has no default, so a
        call site can never silently drop the residency signal."""
        for name, comparator in self._instances(micro_program).items():
            parameters = inspect.signature(comparator.lookup).parameters
            assert list(parameters) == ["pc", "line_resident"], name
            resident = parameters["line_resident"]
            assert resident.default is inspect.Parameter.empty, name
            with pytest.raises(TypeError):
                comparator.lookup(0x1000)

    def test_hooks_always_callable(self, micro_program):
        """record/on_btb_miss exist on every design (no-ops where the
        design has no such behaviour) -- no hasattr at call sites."""
        for comparator in self._instances(micro_program).values():
            comparator.on_btb_miss(0x1000)
            comparator.record(0x1000, BranchKind.CALL, 0x2000)

    def test_size_bytes_positive(self, micro_program):
        for name, comparator in self._instances(micro_program).items():
            assert comparator.size_bytes > 0, name
            config = FrontEndConfig()
            assert (comparator_size_bytes(name, config)
                    == comparator.size_bytes), name

    def test_register_metrics_exposes_counters(self, micro_program):
        from repro.obs.registry import MetricsRegistry
        for name, comparator in self._instances(micro_program).items():
            registry = MetricsRegistry()
            comparator.register_metrics(registry.scope("comparator"))
            snapshot = registry.snapshot()
            assert snapshot["comparator.lookups"] == 0, name
            assert snapshot["comparator.hits"] == 0, name

    def test_build_comparator_rejects_unknown(self, micro_program):
        with pytest.raises(ValueError, match="unknown comparator"):
            build_comparator("nope", micro_program, FrontEndConfig())


class TestEndToEnd:
    @pytest.mark.parametrize("name", sorted(COMPARATOR_NAMES))
    def test_comparator_never_hurts_much(self, micro_program, micro_trace,
                                         name):
        # A small BTB creates the capacity re-misses these schemes cover
        # (the micro program fits entirely in the default 8K BTB).
        base_config = FrontEndConfig().with_btb_entries(256)
        base = simulate(micro_program, micro_trace, base_config,
                        warmup=2_000)
        enhanced = simulate(micro_program, micro_trace,
                            base_config.with_comparator(name), warmup=2_000)
        assert enhanced.ipc >= base.ipc * 0.995
        assert enhanced.comparator_hits > 0

    def test_skia_beats_airbtb(self, micro_program, micro_trace):
        """The paper's qualitative claim, measured: shadow decoding
        covers branches the L1-coupled scheme cannot."""
        airbtb = simulate(micro_program, micro_trace,
                          FrontEndConfig(comparator="airbtb"), warmup=2_000)
        skia = simulate(micro_program, micro_trace,
                        FrontEndConfig(skia=SkiaConfig()), warmup=2_000)
        assert skia.ipc >= airbtb.ipc

    def test_unknown_comparator_rejected(self, micro_program, micro_trace):
        with pytest.raises(ValueError):
            simulate(micro_program, micro_trace,
                     FrontEndConfig(comparator="nope"), warmup=0)

    def test_with_comparator_helper(self):
        config = FrontEndConfig().with_comparator("airbtb")
        assert config.comparator == "airbtb"
        with pytest.raises(ValueError):
            FrontEndConfig().with_comparator("bad")
