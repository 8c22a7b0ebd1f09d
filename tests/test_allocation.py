"""Resource allocation schemes."""

import numpy as np
import pytest

from dd_oracle import bin_mask
from otfsync.allocation import build_allocation, UserAllocation
from otfsync.errors import AllocationError


def check_partition(allocs, m, n):
    """Assert the 2-D bins are in range, disjoint across users, and tile the grid."""
    owner = np.full((m, n), -1, dtype=int)
    for alloc in allocs:
        rows, cols = np.asarray(alloc.delay_bins), np.asarray(alloc.doppler_bins)
        assert rows.min() >= 0 and rows.max() < m
        assert cols.min() >= 0 and cols.max() < n
        assert np.all(owner[np.ix_(rows, cols)] == -1), f"user {alloc.user_id} overlaps"
        owner[np.ix_(rows, cols)] = alloc.user_id
    assert np.all(owner != -1), "allocation does not cover the grid"


def test_contiguous_doppler_even_split():
    allocs = build_allocation(128, 32, 2, "contiguous-doppler")
    assert allocs[0].doppler_bins == tuple(range(0, 16))
    assert allocs[1].doppler_bins == tuple(range(16, 32))
    for a in allocs:
        assert a.delay_bins == tuple(range(128))


def test_degenerate_split_one_bin_each():
    allocs = build_allocation(4, 4, 4, "contiguous-doppler")
    for q, a in enumerate(allocs):
        assert a.doppler_bins == (q,)


def test_interleaved_partition_exhaustive():
    allocs = build_allocation(128, 32, 4, "interleaved")
    for q, a in enumerate(allocs):
        assert a.doppler_bins == tuple(range(q, 32, 4))
    # mutual exclusivity + union by exhaustive set check
    seen = set()
    for a in allocs:
        bins = {(l, k) for l in a.delay_bins for k in a.doppler_bins}
        assert not bins & seen
        seen |= bins
    assert len(seen) == 128 * 32


@pytest.mark.parametrize("scheme", ["contiguous-delay", "contiguous-doppler",
                                    "interleaved"])
@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_partition_property_all_schemes(scheme, q):
    # remainder bins must land with the last user, grid fully tiled
    allocs = build_allocation(24, 10, q, scheme)
    check_partition(allocs, 24, 10)


def test_rejects_too_many_users():
    with pytest.raises(AllocationError):
        build_allocation(4, 8, 5, "contiguous-doppler")
    with pytest.raises(AllocationError):
        build_allocation(8, 4, 5, "contiguous-delay")


def test_rejects_unknown_scheme():
    with pytest.raises(AllocationError):
        build_allocation(8, 8, 2, "checkerboard")


def test_bin_mask_counts():
    alloc = UserAllocation(1, (0, 1), (2,))
    mask = bin_mask(alloc, 4, 4)
    assert mask.sum() == 2
    assert mask[0, 2] and mask[1, 2]
