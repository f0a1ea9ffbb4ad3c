"""Property-based tests for the ISA substrate."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.branch import BranchKind
from repro.isa.decoder import decode_at
from repro.isa.encoder import Encoder
from repro.isa.opcodes import MAX_INSTRUCTION_LENGTH

ENCODER = Encoder()


@given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 15))
@settings(max_examples=300)
def test_filler_roundtrip(seed, length):
    """Every filler decodes to a single non-branch instruction of the
    requested length."""
    rng = random.Random(seed)
    encoding = ENCODER.filler(rng, length)
    decoded = decode_at(bytes(encoding), 0)
    assert decoded is not None
    assert decoded.length == length
    assert decoded.kind is BranchKind.NOT_BRANCH


@given(data=st.binary(min_size=0, max_size=64),
       offset=st.integers(0, 63))
@settings(max_examples=500)
def test_decode_never_crashes_and_bounds_length(data, offset):
    """Arbitrary bytes either fail to decode or give a 1..15-byte
    instruction that fits in the buffer."""
    decoded = decode_at(data, offset)
    if decoded is not None:
        assert 1 <= decoded.length <= MAX_INSTRUCTION_LENGTH
        assert offset + decoded.length <= len(data)


@given(data=st.binary(min_size=1, max_size=64),
       offset=st.integers(0, 63),
       limit=st.integers(0, 64))
@settings(max_examples=300)
def test_decode_respects_limit(data, offset, limit):
    decoded = decode_at(data, offset, limit=limit)
    if decoded is not None:
        assert offset + decoded.length <= min(limit, len(data))


@given(seed=st.integers(0, 2**32 - 1),
       pc=st.integers(0, 2**30),
       displacement=st.integers(-(2**31), 2**31 - 1))
@settings(max_examples=300)
def test_call_target_roundtrip(seed, pc, displacement):
    """patch_relative then decode recovers the exact target for any
    rel32-reachable displacement."""
    rng = random.Random(seed)
    ins = ENCODER.call(rng, target_label=0)
    ins.pc = pc
    target = pc + ins.length + displacement
    ins.patch_relative(target)
    decoded = decode_at(bytes(ins.encoding), 0, pc=pc)
    assert decoded.target == target


@given(data=st.binary(min_size=16, max_size=64))
@settings(max_examples=200)
def test_linear_decode_is_self_consistent(data):
    """Decoding a window consecutively always terminates and never
    overlaps instructions."""
    offset = 0
    previous_end = 0
    steps = 0
    while offset < len(data):
        decoded = decode_at(data, offset)
        if decoded is None:
            break
        assert offset >= previous_end
        previous_end = offset + decoded.length
        offset = previous_end
        steps += 1
        assert steps <= len(data)  # guaranteed progress


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_branch_encodings_decode_to_same_kind(seed):
    rng = random.Random(seed)
    cases = [
        (ENCODER.cond_branch(rng, 0, wide=rng.random() < 0.5),
         BranchKind.DIRECT_COND),
        (ENCODER.uncond_jmp(rng, 0, wide=rng.random() < 0.5),
         BranchKind.DIRECT_UNCOND),
        (ENCODER.call(rng, 0), BranchKind.CALL),
        (ENCODER.ret(rng, with_imm=rng.random() < 0.5), BranchKind.RETURN),
        (ENCODER.indirect_jmp(rng, memory=rng.random() < 0.5),
         BranchKind.INDIRECT_UNCOND),
        (ENCODER.indirect_call(rng, memory=rng.random() < 0.5),
         BranchKind.INDIRECT_CALL),
    ]
    for ins, kind in cases:
        decoded = decode_at(bytes(ins.encoding), 0)
        assert decoded is not None
        assert decoded.kind is kind
        assert decoded.length == ins.length
