"""Property test: the Fenwick-tree reuse-distance computation matches a
brute-force distinct-count reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.analysis import branch_reuse_profile


def brute_force_distances(pcs: list[int]) -> list[int]:
    last_seen: dict[int, int] = {}
    distances = []
    for position, pc in enumerate(pcs):
        previous = last_seen.get(pc)
        if previous is not None:
            window = pcs[previous + 1:position]
            distances.append(len({p for p in window}))
        last_seen[pc] = position
    return distances


@given(pcs=st.lists(st.integers(0, 12), min_size=2, max_size=120))
@settings(max_examples=200, deadline=None)
def test_reuse_distances_match_brute_force(pcs):
    profile = branch_reuse_profile([pc * 2 for pc in pcs])
    reference = sorted(brute_force_distances([pc * 2 for pc in pcs]))
    assert profile.samples == len(reference)
    if reference:
        assert profile.median == reference[len(reference) // 2]
        assert profile.p90 == reference[int(len(reference) * 0.9)]


@given(pcs=st.lists(st.integers(0, 40), min_size=2, max_size=150),
       capacity=st.integers(1, 16))
@settings(max_examples=100, deadline=None)
def test_cold_fraction_matches_brute_force(pcs, capacity):
    profile = branch_reuse_profile([pc * 2 for pc in pcs],
                                   btb_entries=capacity)
    reference = brute_force_distances([pc * 2 for pc in pcs])
    if reference:
        expected = sum(d > capacity for d in reference) / len(reference)
        assert profile.over_8k_fraction == expected
