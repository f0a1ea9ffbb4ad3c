"""A decoder over the process-wide decode tables returns exactly what a
decoder over private tables computes, under every head-decode policy."""

from repro.core import decode_tables
from repro.core.sbd import ShadowBranchDecoder
from repro.frontend.config import IndexPolicy, SkiaConfig

#: Boundary offsets within a line: both ends and a spread in between.
OFFSETS = (1, 2, 5, 13, 31, 32, 47, 62, 63)

HEAD_FIELDS = ("branches", "decoded_pcs", "valid_paths", "discarded",
               "chosen_start")
TAIL_FIELDS = ("branches", "decoded_pcs")

#: Every decode policy pair; the shared decoders of all of them run in
#: one process, so a head table keyed too coarsely would leak results
#: from one policy into another.
POLICIES = [(policy, max_valid_paths)
            for policy in IndexPolicy for max_valid_paths in (1, 6)]


def _decoder(program, policy, max_valid_paths, shared):
    config = SkiaConfig(index_policy=policy,
                        max_valid_paths=max_valid_paths)
    return ShadowBranchDecoder(program.image, program.base_address,
                               config, shared=shared)


def _results(decoder, program):
    base = program.base_address
    heads, tails = [], []
    for line in range(base, base + len(program.image), 64):
        for offset in OFFSETS:
            head = decoder.decode_head(line + offset)
            tail = decoder.decode_tail(line + offset)
            heads.append(tuple(getattr(head, name) for name in HEAD_FIELDS))
            tails.append(tuple(getattr(tail, name) for name in TAIL_FIELDS))
    return heads, tails


def test_shared_and_private_tables_agree(micro_program):
    decode_tables.reset()
    try:
        shared = {key: _results(_decoder(micro_program, *key, shared=True),
                                micro_program)
                  for key in POLICIES}
        # A second pass reads every result back from the shared tables.
        again = {key: _results(_decoder(micro_program, *key, shared=True),
                               micro_program)
                 for key in POLICIES}
    finally:
        decode_tables.reset()
    for key in POLICIES:
        private = _results(_decoder(micro_program, *key, shared=False),
                           micro_program)
        assert shared[key] == private, key
        assert again[key] == private, key
    # The policies differ somewhere, so the comparison can tell them apart.
    assert len({repr(shared[key][0]) for key in POLICIES}) > 1
