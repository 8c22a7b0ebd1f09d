"""Cyclic-prefixed Zadoff-Chu pilot construction and grid embedding.

The pilot geometry is read from the config, which validates it.  Every
user's pilot lives in one shared delay region of the grid: rows
``delay_lo .. delay_hi`` (``anchor - zc_len + 1 .. anchor + zc_len - 1``)
across all Doppler bins are reserved, data-free for all users
(``guard_rows``).  User q writes its pilot column at Doppler bin
``SystemConfig.pilot_bin(q)``, ``offset + q * band``.  A user's data and its
pilot both lie in its filter band, the ``band`` Doppler bins from
``q * band`` that ``sync.doppler_mask`` gives it and its receive filter
passes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

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


def guard_rows(cfg: SystemConfig) -> range:
    """The delay rows of the shared pilot span, data-free for every user."""
    return range(cfg.delay_lo, cfg.delay_hi + 1)


def region_index(cfg: SystemConfig, theta: int) -> np.ndarray:
    """(N, zc_len) CP-removed stream index of the pilot region at timing
    offset ``theta``: delay rows anchor + theta + j of every time slot,
    wrapped modulo M*N (the frame CP makes the wrapped position carry the
    continuation of the pilot).  Cached per (m, n, zc_len, anchor, theta),
    so that configs that differ in other fields share it, and read-only."""
    return _region_index(cfg.m, cfg.n, cfg.zc_len, cfg.anchor, int(theta))


def region_kappa(cfg: SystemConfig, theta: int) -> np.ndarray:
    """(N, zc_len) sample index kappa of the pilot region at timing offset
    ``theta``: the ``region_index`` past the CP, where phases and bases are read."""
    return cfg.cp_len + region_index(cfg, theta)


@functools.lru_cache(maxsize=256)
def _region_index(m: int, n: int, zc_len: int, anchor: int, theta: int) -> np.ndarray:
    rows = anchor + theta + np.arange(zc_len)
    idx = (np.arange(n)[:, None] * m + rows[None, :]) % (m * n)
    idx.flags.writeable = False
    return idx


def embed_pilots(frames, cfg: SystemConfig, pcp: np.ndarray) -> np.ndarray:
    """The (Q, M, N) stack of the users' frames with each user's pilot
    written in; the shared span must be data-free."""
    rows = slice(cfg.delay_lo, cfg.delay_hi + 1)
    out = np.array(frames, dtype=complex)
    for user, frame in enumerate(out):
        if np.any(frame[rows, :] != 0):
            raise PlacementError(
                f"user {user}: data occupies the shared pilot delay span "
                f"[{cfg.delay_lo}, {cfg.delay_hi}]"
            )
        frame[rows, cfg.pilot_bin(user)] = pcp
    return out


def region_pilot(cfg: SystemConfig, pcp: np.ndarray) -> np.ndarray:
    """(L_p,) pilot row p of the region, p[j] = pcp[zc_len - 1 + j] / sqrt(N):
    user q transmits slot_phase(q)[n] * p[j] at region position (n, j)."""
    return pcp[cfg.zc_len - 1:] / math.sqrt(cfg.n)


def slot_phase(cfg: SystemConfig, user: int) -> np.ndarray:
    """(N,) phase exp(j 2 pi k_q n / N) of user q's pilot in time slot n.
    The pilot column at Doppler bin k_q modulates to this phase times the
    PCP / sqrt(N) in every slot, so user q's region template is
    outer(slot_phase(q), region_pilot), and the region de-rotated by the
    phase fits the Doppler-free template 1 (x) p that all users share.
    k_q n is reduced modulo N first, which keeps the phase exact to rounding."""
    k = cfg.pilot_bin(user)
    return np.exp(2j * np.pi * (k * np.arange(cfg.n) % cfg.n) / cfg.n)
