"""The generator's draw helpers consume the Mersenne-Twister stream
exactly as the ``random.Random`` methods they replace.

Program generation reads ``rng.getrandbits``/``rng.random`` directly
instead of calling ``randrange``/``choice``/``choices``.  These
properties pin that equivalence value by value and by the generator
state afterwards, so a future CPython change to ``random`` fails here
instead of silently changing every generated program.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.encoder import (
    _byte, _imm, _reg, _rm_not4, _sib, choice, randbelow)
from repro.workloads.codegen import weighted_choice
from repro.workloads.profiles import DEFAULT_LENGTH_MIX

seeds = st.integers(0, 2**64 - 1)


@given(seed=seeds, n=st.integers(1, 300), draws=st.integers(1, 20))
@settings(max_examples=300, deadline=None)
def test_randbelow_is_randrange_and_choice(seed, n, draws):
    rng, ref = random.Random(seed), random.Random(seed)
    got = [randbelow(rng.getrandbits, n) for _ in range(draws)]
    assert got == [ref.randrange(n) for _ in range(draws)]
    assert rng.getstate() == ref.getstate()
    options = range(100, 100 + n)
    got = [choice(rng.getrandbits, options) for _ in range(draws)]
    assert got == [ref.choice(options) for _ in range(draws)]
    assert rng.getstate() == ref.getstate()


@given(seed=seeds, width=st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_fixed_range_draws(seed, width):
    """The helpers that inline the rejection loop for a constant range."""
    rng, ref = random.Random(seed), random.Random(seed)
    g = rng.getrandbits
    assert _byte(g) == ref.randrange(256)
    assert _imm(g, width) == bytes(ref.randrange(256) for _ in range(width))
    assert _reg(g) == ref.randrange(8)
    rm = ref.randrange(7)
    assert _rm_not4(g) == (rm if rm < 4 else rm + 1)
    sib = ref.randrange(256)
    while sib & 7 == 5:
        sib = ref.randrange(256)
    assert _sib(g) == sib
    assert rng.getstate() == ref.getstate()


@given(seed=seeds,
       weights=st.lists(st.one_of(st.integers(0, 50),
                                  st.floats(0.0, 50.0)),
                        min_size=1, max_size=15)
       .filter(lambda ws: sum(ws) > 0),
       draws=st.integers(1, 30))
@settings(max_examples=300, deadline=None)
def test_weighted_choice_is_choices(seed, weights, draws):
    lengths = tuple(range(1, len(weights) + 1))
    rng, ref = random.Random(seed), random.Random(seed)
    draw = weighted_choice(rng, lengths, weights)
    got = [draw() for _ in range(draws)]
    assert got == [ref.choices(lengths, weights=weights)[0]
                   for _ in range(draws)]
    assert rng.getstate() == ref.getstate()


@given(seed=seeds)
@settings(max_examples=100, deadline=None)
def test_default_length_mix_draw_is_choices(seed):
    lengths, weights = DEFAULT_LENGTH_MIX
    rng, ref = random.Random(seed), random.Random(seed)
    draw = weighted_choice(rng, lengths, weights)
    assert [draw() for _ in range(50)] == [
        ref.choices(lengths, weights=weights)[0] for _ in range(50)]
    assert rng.getstate() == ref.getstate()
