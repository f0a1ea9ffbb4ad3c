"""Generated programs and a compiled trace match digests recorded once.

The table lives in :mod:`tests.workloads.generation_golden`, which can
also be run without pytest.
"""

import pytest

from repro.workloads.profiles import PROFILES
from tests.workloads.generation_golden import (
    GOLDEN_BOLTED,
    GOLDEN_ENCODER,
    GOLDEN_PROGRAMS,
    GOLDEN_TRACES,
    GOLDEN_VOTER_TRACE,
    TRACE_CASES,
    bolted_digest,
    encoder_digest,
    generated_digest,
    trace_digest,
    voter_trace_digest,
)


def test_table_covers_every_profile():
    assert sorted(GOLDEN_PROGRAMS) == sorted(PROFILES)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_program_golden(name):
    assert generated_digest(name) == GOLDEN_PROGRAMS[name]


def test_encoder_golden():
    assert encoder_digest() == GOLDEN_ENCODER


def test_bolted_program_golden():
    assert bolted_digest() == GOLDEN_BOLTED


def test_compiled_trace_golden():
    assert voter_trace_digest() == GOLDEN_VOTER_TRACE


def test_trace_table_covers_every_case():
    assert sorted(GOLDEN_TRACES) == sorted(TRACE_CASES)
    assert set(PROFILES) <= set(TRACE_CASES)


@pytest.mark.parametrize("label", sorted(TRACE_CASES))
def test_trace_golden(label):
    assert trace_digest(label) == GOLDEN_TRACES[label]
