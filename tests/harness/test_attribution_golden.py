"""Attribution artifacts and event-trace dumps match recorded digests.

The table lives in :mod:`tests.harness.attribution_golden`, which can
also be run without pytest.
"""

from tests.harness.attribution_golden import (
    CONFIGS,
    GOLDEN_ARTIFACTS,
    GOLDEN_TRACES,
    TRACE_CELLS,
    WORKLOADS,
    artifact_digests,
    trace_digests,
)


def test_table_covers_every_cell():
    assert sorted(GOLDEN_ARTIFACTS) == sorted(
        f"{workload}/{label}" for workload in WORKLOADS for label in CONFIGS)
    assert sorted(GOLDEN_TRACES) == sorted(
        f"{workload}/{label}" for workload, label in TRACE_CELLS)


def test_attribution_artifacts_golden():
    assert artifact_digests() == GOLDEN_ARTIFACTS


def test_event_trace_dumps_golden():
    assert trace_digests() == GOLDEN_TRACES
