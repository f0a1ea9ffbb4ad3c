"""Property-based tests for shadow decoding invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sbd import ShadowBranchDecoder
from repro.frontend.config import IndexPolicy, SkiaConfig
from repro.isa.decoder import decode_at
from repro.isa.encoder import Encoder

ENCODER = Encoder()


def build_true_code(seed: int, total: int = 64) -> tuple[bytes, list[int]]:
    """A byte stream of real instructions; returns (bytes, boundaries)."""
    rng = random.Random(seed)
    out = bytearray()
    boundaries = []
    while len(out) < total:
        boundaries.append(len(out))
        remaining = total - len(out)
        roll = rng.random()
        if roll < 0.10 and remaining >= 1:
            out.extend(ENCODER.ret(rng).encoding)
        elif roll < 0.2 and remaining >= 5:
            ins = ENCODER.uncond_jmp(rng, 0)
            ins.pc = len(out)
            ins.patch_relative(rng.randrange(0, 1 << 12))
            out.extend(ins.encoding)
        elif roll < 0.3 and remaining >= 5:
            ins = ENCODER.call(rng, 0)
            ins.pc = len(out)
            ins.patch_relative(rng.randrange(0, 1 << 12))
            out.extend(ins.encoding)
        else:
            length = rng.randint(1, min(remaining, 11))
            out.extend(ENCODER.filler(rng, length))
    return bytes(out[:total]), [b for b in boundaries if b < total]


@given(seed=st.integers(0, 10_000), exit_offset=st.integers(0, 63))
@settings(max_examples=150, deadline=None)
def test_tail_decode_from_true_boundary_follows_truth(seed, exit_offset):
    """Tail decoding started at a true instruction boundary only visits
    true boundaries (Section 3.4: tail decoding is unambiguous)."""
    code, boundaries = build_true_code(seed, total=128)
    if exit_offset not in boundaries:
        return
    sbd = ShadowBranchDecoder(code, 0, SkiaConfig())
    result = sbd.decode_tail(exit_pc=exit_offset)
    boundary_set = set(boundaries)
    for pc in result.decoded_pcs:
        assert pc in boundary_set


@given(seed=st.integers(0, 10_000), entry=st.integers(1, 63))
@settings(max_examples=150, deadline=None)
def test_head_paths_land_exactly_on_entry(seed, entry):
    """Every validated head path, walked through the Length vector,
    terminates exactly at the entry offset."""
    code, _ = build_true_code(seed, total=64)
    sbd = ShadowBranchDecoder(code, 0, SkiaConfig(max_valid_paths=10**9))
    lengths = sbd._index_computation(0, entry)
    for start in sbd._path_validation(lengths, entry):
        position = start
        while position < entry:
            assert lengths[position] > 0
            position += lengths[position]
        assert position == entry


@given(seed=st.integers(0, 10_000), entry=st.integers(1, 63))
@settings(max_examples=100, deadline=None)
def test_head_true_boundary_path_always_validates(seed, entry):
    """If the entry offset and some earlier true boundary are both real
    instruction starts with no branch redirection between them, the true
    path must be among the validated paths."""
    code, boundaries = build_true_code(seed, total=64)
    if entry not in boundaries:
        return
    earlier = [b for b in boundaries if b < entry]
    if not earlier:
        return
    sbd = ShadowBranchDecoder(code, 0, SkiaConfig(max_valid_paths=10**9))
    lengths = sbd._index_computation(0, entry)
    valid = set(sbd._path_validation(lengths, entry))
    # Walking true boundaries from any earlier true start reaches entry,
    # so each earlier boundary is a valid path start.
    for start in earlier:
        assert start in valid


@given(seed=st.integers(0, 10_000), entry=st.integers(1, 63),
       policy=st.sampled_from(list(IndexPolicy)))
@settings(max_examples=100, deadline=None)
def test_head_branches_have_in_region_pcs(seed, entry, policy):
    code, _ = build_true_code(seed, total=64)
    sbd = ShadowBranchDecoder(
        code, 0, SkiaConfig(index_policy=policy, max_valid_paths=10**9))
    result = sbd.decode_head(entry_pc=entry)
    for branch in result.branches:
        assert 0 <= branch.pc < entry
        assert branch.kind.sbb_eligible


@given(seed=st.integers(0, 10_000), exit_offset=st.integers(1, 63))
@settings(max_examples=100, deadline=None)
def test_tail_branches_within_line(seed, exit_offset):
    code, _ = build_true_code(seed, total=64)
    sbd = ShadowBranchDecoder(code, 0, SkiaConfig())
    result = sbd.decode_tail(exit_pc=exit_offset)
    for branch in result.branches:
        assert exit_offset <= branch.pc < 64
        # The whole instruction fits in the line.
        decoded = decode_at(code, branch.pc, pc=branch.pc)
        assert branch.pc + decoded.length <= 64
