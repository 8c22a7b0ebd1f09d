"""Per-user delay-Doppler resource allocation.

An allocation assigns each user an ordered set of delay bins and an
ordered set of Doppler bins; the user owns the Cartesian product of the
two sets.  Across users the products are disjoint and together they tile
the full M x N grid.  Allocations are immutable and safe to share across
Monte Carlo workers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AllocationError


@dataclass(frozen=True)
class UserAllocation:
    user_id: int
    delay_bins: tuple[int, ...]
    doppler_bins: tuple[int, ...]


def _contiguous_split(size: int, parts: int) -> list[tuple[int, ...]]:
    # remainder bins go to the highest-indexed user
    chunk = size // parts
    out = []
    for q in range(parts):
        hi = (q + 1) * chunk if q < parts - 1 else size
        out.append(tuple(range(q * chunk, hi)))
    return out


def build_allocation(m: int, n: int, num_users: int, scheme: str) -> list[UserAllocation]:
    """Build one allocation per user for a named scheme.

    Schemes: ``contiguous-delay`` splits the delay axis, ``contiguous-doppler``
    splits the Doppler axis, ``interleaved`` stripes the Doppler axis with
    stride ``num_users``.  The unsplit axis is shared in full by every user.
    """
    if num_users < 1:
        raise AllocationError("need at least one user")
    if num_users > m or num_users > n:
        raise AllocationError(
            f"num_users={num_users} exceeds the grid (m={m}, n={n})"
        )
    all_delay = tuple(range(m))
    all_doppler = tuple(range(n))
    if scheme == "contiguous-delay":
        parts = _contiguous_split(m, num_users)
        return [UserAllocation(q, parts[q], all_doppler) for q in range(num_users)]
    if scheme == "contiguous-doppler":
        parts = _contiguous_split(n, num_users)
        return [UserAllocation(q, all_delay, parts[q]) for q in range(num_users)]
    if scheme == "interleaved":
        return [
            UserAllocation(q, all_delay, tuple(range(q, n, num_users)))
            for q in range(num_users)
        ]
    raise AllocationError(f"unknown allocation scheme {scheme!r}")
