"""TAGE and ITTAGE updates match digests recorded once.

The table lives in :mod:`tests.frontend.predictor_golden`, which can
also be run without pytest.
"""

import pytest

from tests.frontend.predictor_golden import (
    GOLDEN_ITTAGE,
    GOLDEN_TAGE,
    ITTAGE_CASES,
    TAGE_CASES,
    ittage_digest,
    tage_digest,
)


def test_table_covers_every_case():
    assert sorted(GOLDEN_TAGE) == sorted(TAGE_CASES)
    assert sorted(GOLDEN_ITTAGE) == sorted(ITTAGE_CASES)


@pytest.mark.parametrize("label", sorted(TAGE_CASES))
def test_tage_golden(label):
    assert tage_digest(label) == GOLDEN_TAGE[label]


@pytest.mark.parametrize("label", sorted(ITTAGE_CASES))
def test_ittage_golden(label):
    assert ittage_digest(label) == GOLDEN_ITTAGE[label]
