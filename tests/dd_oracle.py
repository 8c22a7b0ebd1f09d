"""Dense delay-Doppler channel matrix: the oracle for ``apply_channel``.

``build_compound_channel`` assembles Psi_DD = sum_q Phi_DD(eps_q) Lambda_DD_q P_q,
an MN x MN matrix that maps the combined delay-Doppler symbol vector of all
users to the demodulated receive grid.  It is dense (268 MB at the default
128 x 32 grid), so it lives here and is only built at test sizes, where the
keystone tests check it against the sample-level path to 1e-9.  The
receive transform (``demodulate``) and the bin selector (``bin_mask``) that
it rests on live here too, as no experiment reads a delay-Doppler grid back.

``pilot_frame``, ``timing_template`` and ``pilot_region_ref`` build a
user's pilot template from the config's pilot geometry by modulating its
delay-Doppler pilot frame: the oracle for the slot-phase form
``outer(pilot.slot_phase, pilot.region_pilot)`` that ``sync`` fits against.
"""

from dataclasses import dataclass

import numpy as np

from otfsync import modem, sync
from otfsync.channel import ChannelRealization
from otfsync.config import SystemConfig


def demodulate(stream: np.ndarray, m: int, n: int) -> np.ndarray:
    """Length-M*N stream -> delay-Doppler grid (unitary DFT along time)."""
    grid = np.asarray(stream).reshape(m, n, order="F")
    return np.fft.fft(grid, axis=1) / np.sqrt(n)


def bin_mask(cfg: SystemConfig, user: int) -> np.ndarray:
    """Boolean M x N mask of the bins owned by this user: every delay row
    of the Doppler band its receive filter passes (``sync.doppler_mask``)."""
    return np.broadcast_to(sync.doppler_mask(cfg, user), (cfg.m, cfg.n))


def pilot_frame(cfg: SystemConfig, pcp: np.ndarray, user: int) -> np.ndarray:
    """Delay-Doppler grid holding only this user's pilot column: the PCP in
    delay rows delay_lo..delay_hi of Doppler bin ``cfg.pilot_bin(user)``."""
    frame = np.zeros((cfg.m, cfg.n), dtype=complex)
    frame[cfg.delay_lo:cfg.delay_hi + 1, cfg.pilot_bin(user)] = pcp
    return frame


def timing_template(cfg: SystemConfig, pcp: np.ndarray, user: int) -> np.ndarray:
    """Transmitted delay-time pilot grid of this user."""
    return modem.modulate(pilot_frame(cfg, pcp, user))


def pilot_region_ref(cfg: SystemConfig, pcp: np.ndarray, user: int) -> np.ndarray:
    """(N, zc_len) transmitted pilot samples of this user in delay rows
    anchor..anchor+zc_len-1, indexed [time slot, sample-in-region]."""
    dt = timing_template(cfg, pcp, user)
    return dt[cfg.anchor:cfg.anchor + cfg.zc_len, :].T.copy()


def dd_transform(mat: np.ndarray, m: int, n: int) -> np.ndarray:
    """(F_N kron I_M) @ mat @ (F_N^H kron I_M) via per-block FFTs."""
    mn = m * n
    t = mat.reshape(m, n, m, n, order="F")
    t = np.fft.fft(t, axis=1) / np.sqrt(n)
    t = np.fft.ifft(t, axis=3) * np.sqrt(n)
    return t.reshape(mn, mn, order="F")


@dataclass
class CompoundChannel:
    """Delay-Doppler compound channel with per-user diagnostics blocks."""

    psi_dd: np.ndarray            # (MN, MN)
    lambda_dd: list[np.ndarray]   # per-user TO+channel blocks, DD domain
    phi_dd: list[np.ndarray]      # per-user CFO blocks, DD domain


def _user_lambda(paths, theta: int, cp_len: int, mn: int) -> np.ndarray:
    """TO+channel operator on the CP-removed frame.

    Row i (absolute sample cp_len + i) picks the frame sample delayed by
    theta + delay, circular thanks to the frame CP:
    Lambda[i, (i - theta - delay) mod MN] += h[delay, cp_len + i].
    """
    lam = np.zeros((mn, mn), dtype=complex)
    rows = np.arange(mn)
    taps = paths.taps(cp_len + rows, int(paths.delays.max()) + 1)
    for delay in np.unique(paths.delays):
        cols = (rows - theta - int(delay)) % mn
        lam[rows, cols] += taps[delay]
    return lam


def build_compound_channel(realization: ChannelRealization,
                           cfg: SystemConfig) -> CompoundChannel:
    """Assemble Psi_DD; P_q is the diagonal selector of user q's bins."""
    m, n, mn = cfg.m, cfg.n, cfg.m * cfg.n
    assert realization.num_users == cfg.num_users
    psi = np.zeros((mn, mn), dtype=complex)
    lambda_dd_all, phi_dd_all = [], []
    kappa = cfg.cp_len + np.arange(mn)
    for q, paths in enumerate(realization.paths):
        lam = _user_lambda(paths, int(realization.to[q]), cfg.cp_len, mn)
        phi = np.exp(2j * np.pi * realization.cfo[q] * kappa / cfg.n_s)
        lam_dd = dd_transform(lam, m, n)
        phi_dd = dd_transform(np.diag(phi), m, n)
        mask = bin_mask(cfg, q).flatten(order="F")
        psi += (phi_dd @ lam_dd) * mask[np.newaxis, :]
        lambda_dd_all.append(lam_dd)
        phi_dd_all.append(phi_dd)
    return CompoundChannel(psi_dd=psi, lambda_dd=lambda_dd_all, phi_dd=phi_dd_all)
