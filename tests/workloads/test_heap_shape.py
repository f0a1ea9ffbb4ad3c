"""The long-lived workload heap: what a built program and a compiled
trace leave for the cyclic garbage collector to walk.

Every full collection walks every GC-tracked object, so a cold grid
pays for the program heap once per collection.  A block holds one
tracked object of its own (a slotted ``BasicBlock``) and one for its
terminator; its fillers are a ``bytes`` run, which the collector does
not track.  A trace is compiled from its block-index stream without
building a record list.
"""

from __future__ import annotations

import gc
from enum import Enum
from types import FunctionType, ModuleType

import pytest

from repro.isa.instruction import Instruction
from repro.workloads.cache import WorkloadCache
from repro.workloads.codegen import ProgramGenerator
from repro.workloads.profiles import PROFILES, get_profile
from tests.workloads.records import BlockRecord, as_records

#: Most tracked objects a program may hold per basic block: the block,
#: its terminator, and a share of the function lists, label maps and
#: indirect-target lists.
MAX_TRACKED_PER_BLOCK = 2.5

#: Shared objects a walk does not enter: classes, modules, functions
#: and enum members are referred to by a program, not owned by it.
_SHARED = (type, ModuleType, FunctionType, Enum)


def owned_objects(root) -> list:
    """The GC-tracked objects reachable from ``root`` (``root`` too),
    short of shared ones."""
    seen = {id(root)}
    stack = [root]
    owned = []
    while stack:
        obj = stack.pop()
        owned.append(obj)
        for ref in gc.get_referents(obj):
            if (id(ref) not in seen and gc.is_tracked(ref)
                    and not isinstance(ref, _SHARED)):
                seen.add(id(ref))
                stack.append(ref)
    return owned


def check_heap(program) -> None:
    # A full collection first: it untracks tuples of atomic values
    # (indirect-target pairs), as it would in a long run.
    gc.collect()
    owned = owned_objects(program)
    blocks = list(program.iter_blocks())
    assert len(owned) <= MAX_TRACKED_PER_BLOCK * len(blocks), (
        f"{program.name}: {len(owned)} tracked objects for "
        f"{len(blocks)} blocks")
    instructions = {id(obj) for obj in owned if type(obj) is Instruction}
    assert instructions == {id(block.terminator) for block in blocks}


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_program_heap(name):
    check_heap(ProgramGenerator(get_profile(name), seed=0).generate())


def test_bolted_program_heap():
    check_heap(WorkloadCache().program("verilator-bolted", seed=0,
                                       bolted=True))


def live_records() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is BlockRecord)


def test_record_list_dropped_once_compiled(monkeypatch):
    """``trace()`` then ``compiled()`` (the benchmark's set-up) builds no
    :class:`BlockRecord`: the trace is compiled from its block-index
    stream.  Records exist only as the tests' view, built on request."""
    made = []
    init = BlockRecord.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BlockRecord, "__init__", counting_init)
    gc.collect()
    before = live_records()  # other tests' fixtures and caches
    cache = WorkloadCache()
    trace = cache.trace("noop", 2_000)
    compiled = cache.compiled("noop", 2_000)
    assert compiled is trace
    assert made == []
    assert live_records() == before
    # The view: holding a BranchKind, a record stays tracked, so a heap
    # scan finds every live one, and dropping the list frees them all.
    records = as_records(compiled)
    assert len(made) == 2_000
    assert gc.is_tracked(records[0])
    assert live_records() == before + 2_000
    del records
    gc.collect()
    assert live_records() == before
    # A later trace() is the memoised compiled trace, equal to a fresh
    # cache's.
    again = cache.trace("noop", 2_000)
    assert again is compiled
    assert len(again) == 2_000
    assert again.fingerprint == WorkloadCache().trace("noop", 2_000).fingerprint
    assert cache.compiled("noop", 2_000) is compiled
    cache.clear()
