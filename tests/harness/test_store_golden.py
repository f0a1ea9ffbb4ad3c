"""Store addresses and run-ledger cell ids match digests recorded once.

The table lives in :mod:`tests.harness.store_golden`, which can also be
run without pytest.
"""

import pytest

from repro.cli import EXPERIMENTS
from repro.harness.store import schema_fingerprint
from tests.harness.store_golden import (
    EDGE_CONFIGS,
    EXHIBITS,
    GOLDEN_EDGE_IDS,
    GOLDEN_EDGE_KEYS,
    GOLDEN_EXHIBIT_IDS,
    GOLDEN_EXHIBIT_KEYS,
    GOLDEN_SCHEMA,
    edge_id,
    edge_key,
    exhibit_ids_digest,
    exhibit_keys_digest,
)


def test_table_covers_every_exhibit():
    assert set(EXPERIMENTS) <= set(EXHIBITS)
    assert sorted(GOLDEN_EXHIBIT_KEYS) == sorted(EXHIBITS)
    assert sorted(GOLDEN_EXHIBIT_IDS) == sorted(EXHIBITS)
    assert sorted(GOLDEN_EDGE_KEYS) == sorted(EDGE_CONFIGS)
    assert sorted(GOLDEN_EDGE_IDS) == sorted(EDGE_CONFIGS)


def test_schema_golden():
    assert schema_fingerprint() == GOLDEN_SCHEMA


@pytest.mark.parametrize("name", EXHIBITS)
def test_exhibit_keys_golden(name):
    assert exhibit_keys_digest(name) == GOLDEN_EXHIBIT_KEYS[name]


@pytest.mark.parametrize("name", EXHIBITS)
def test_exhibit_cell_ids_golden(name):
    assert exhibit_ids_digest(name) == GOLDEN_EXHIBIT_IDS[name]


@pytest.mark.parametrize("label", sorted(EDGE_CONFIGS))
def test_edge_key_golden(label):
    assert edge_key(label) == GOLDEN_EDGE_KEYS[label]


@pytest.mark.parametrize("label", sorted(EDGE_CONFIGS))
def test_edge_cell_id_golden(label):
    assert edge_id(label) == GOLDEN_EDGE_IDS[label]


def test_int_width_addresses_its_own_cell():
    """``4`` and the default ``4.0`` compare equal but are stored apart."""
    assert (edge_key("backend_effective_width=4")
            != edge_key("backend_effective_width=4.0"))
    assert (edge_id("backend_effective_width=4")
            != edge_id("backend_effective_width=4.0"))
