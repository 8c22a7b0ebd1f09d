"""Cyclic-prefixed Zadoff-Chu pilot construction and grid embedding.

Every user's pilot lives in one shared delay region of the grid: rows
``anchor - zc_len + 1 .. anchor + zc_len - 1`` across all Doppler bins are
reserved (data-free for all users).  User q writes its pilot column at
Doppler bin ``offset + q * band`` so each pilot sits inside that user's
receive filter band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import modem
from .config import SystemConfig
from .errors import ConfigError, PlacementError


def zadoff_chu(zc_len: int, root: int) -> np.ndarray:
    """Unit-amplitude ZC sequence; root must be coprime with the length."""
    if math.gcd(root, zc_len) != 1:
        raise ConfigError(f"zc_root={root} is not coprime with zc_len={zc_len}")
    i = np.arange(zc_len)
    if zc_len % 2 == 0:
        phase = -np.pi * root * i * i / zc_len
    else:
        phase = -np.pi * root * i * (i + 1) / zc_len
    return np.exp(1j * phase)


def make_pcp(zc_len: int, root: int = 1, pilot_power_db: float = 0.0) -> np.ndarray:
    """The 2*zc_len - 1 pilot samples: the ZC sequence with its last zc_len-1
    elements copied in front, scaled so that each embedded bin carries
    ``pilot_power_db`` over unit data power."""
    zc = zadoff_chu(zc_len, root)
    amp = 10.0 ** (pilot_power_db / 20.0)
    return amp * np.concatenate([zc[-(zc_len - 1):], zc]) if zc_len > 1 else amp * zc


@dataclass(frozen=True)
class PilotPlacement:
    """Shared delay span plus one Doppler column per user."""

    m: int
    n: int
    num_users: int
    zc_len: int
    anchor: int                 # l_p
    doppler_bins: tuple[int, ...]

    @property
    def delay_lo(self) -> int:
        return self.anchor - self.zc_len + 1

    @property
    def delay_hi(self) -> int:
        return self.anchor + self.zc_len - 1

    @property
    def guard_rows(self) -> range:
        return range(self.delay_lo, self.delay_hi + 1)

    def region_index(self, theta: int) -> np.ndarray:
        """(N, zc_len) CP-removed stream index of the pilot region at timing
        offset ``theta``: delay rows anchor + theta + j of every time slot,
        wrapped modulo M*N (the frame CP makes the wrapped position carry the
        continuation of the pilot)."""
        rows = self.anchor + int(theta) + np.arange(self.zc_len)
        return (np.arange(self.n)[:, None] * self.m + rows[None, :]) % (self.m * self.n)

    @classmethod
    def build(cls, m: int, n: int, num_users: int, zc_len: int, anchor: int,
              offset: int) -> "PilotPlacement":
        band = n // num_users
        if not 0 <= offset < band:
            raise PlacementError(f"pilot offset {offset} outside the user band [0, {band})")
        bins = tuple(offset + q * band for q in range(num_users))
        placement = cls(m=m, n=n, num_users=num_users, zc_len=zc_len,
                        anchor=anchor, doppler_bins=bins)
        if placement.delay_lo < 0 or placement.delay_hi > m - 1:
            raise PlacementError(
                f"pilot delay span [{placement.delay_lo}, {placement.delay_hi}] "
                f"leaves the delay axis [0, {m - 1}]"
            )
        return placement

    @classmethod
    def from_config(cls, cfg: SystemConfig) -> "PilotPlacement":
        return cls.build(cfg.m, cfg.n, cfg.num_users, cfg.zc_len,
                         cfg.anchor, cfg.offset)


def pilot_frame(placement: PilotPlacement, pcp: np.ndarray, user: int) -> np.ndarray:
    """Delay-Doppler grid holding only this user's pilot column."""
    frame = np.zeros((placement.m, placement.n), dtype=complex)
    frame[placement.delay_lo:placement.delay_hi + 1, placement.doppler_bins[user]] = pcp
    return frame


def embed_pilots(frames, placement: PilotPlacement, pcp: np.ndarray) -> np.ndarray:
    """The (Q, M, N) stack of the users' frames with each user's pilot
    written in; the shared span must be data-free."""
    rows = slice(placement.delay_lo, placement.delay_hi + 1)
    out = np.array(frames, dtype=complex)
    for user, frame in enumerate(out):
        if np.any(frame[rows, :] != 0):
            raise PlacementError(
                f"user {user}: data occupies the shared pilot delay span "
                f"[{placement.delay_lo}, {placement.delay_hi}]"
            )
        frame[rows, placement.doppler_bins[user]] = pcp
    return out


def timing_template(placement: PilotPlacement, pcp: np.ndarray, user: int) -> np.ndarray:
    """Transmitted delay-time pilot grid used by the timing correlator."""
    return modem.modulate(pilot_frame(placement, pcp, user))


def pilot_region_ref(placement: PilotPlacement, pcp: np.ndarray, user: int) -> np.ndarray:
    """Transmitted pilot samples in delay rows anchor..anchor+zc_len-1.

    Returns an (N, zc_len) array indexed [time slot, sample-in-region]; this
    is the clean template the pilot-region estimators fit against.
    """
    dt = timing_template(placement, pcp, user)
    return dt[placement.anchor:placement.anchor + placement.zc_len, :].T.copy()
