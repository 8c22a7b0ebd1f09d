"""Doubly-selective channel generation and sample-level application.

``apply_channel`` is the physics reference: user q's serialized frame is
delayed by its timing offset, convolved with the time-varying taps, rotated
by its CFO, and summed over users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import SystemConfig, SAMPLE_RATE_HZ, default_bem_order
from .errors import RealizationError
from .sync import build_bem_basis

# Extended Vehicular A power-delay profile (excess delay ns, mean power dB)
EVA_DELAYS_NS = np.array([0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0])
EVA_POWERS_DB = np.array([0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9])

#: block length B of the separable phase ramp kappa = B*a + b
RAMP_BLOCK = 64


@lru_cache(maxsize=None)
def eva_profile(len_cap: int = 10):
    """EVA taps quantized to the SAMPLE_RATE_HZ sample grid.

    Delays are rounded to the nearest sample, co-located taps merged by
    power addition, positions clamped into [0, len_cap-1], and the total
    power normalized to one.  Returns (delays, powers), read-only because
    every caller shares the cached pair.
    """
    positions = np.round(EVA_DELAYS_NS * 1e-9 * SAMPLE_RATE_HZ).astype(int)
    positions = np.minimum(positions, len_cap - 1)
    powers_lin = 10.0 ** (EVA_POWERS_DB / 10.0)
    delays = np.array(sorted(set(positions.tolist())))
    powers = np.array([powers_lin[positions == d].sum() for d in delays])
    powers /= powers.sum()
    delays.flags.writeable = False
    powers.flags.writeable = False
    return delays, powers


@lru_cache(maxsize=32)
def frame_basis(order: int, n_s: int) -> np.ndarray:
    """(N_s, order) Chebyshev basis of ``build_bem_basis`` over the whole
    frame, kappa = 0..N_s-1.  Read-only, because every caller shares the
    cached array."""
    basis = build_bem_basis(order, np.arange(n_s), n_s)
    basis.flags.writeable = False
    return basis


def ramp_factors(freqs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Factors (coarse, fine) of the separable ramp exp(j 2 pi f kappa),
    kappa = B*a + b with B = RAMP_BLOCK, a < ceil(n/B), b < B: the (F,
    ceil(n/B)) array exp(j 2 pi f B a) and the (F, B) array exp(j 2 pi f b)
    for the F frequencies ``freqs`` (cycles per sample; a scalar gives
    F = 1)."""
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))[:, np.newaxis]
    blocks = -(-n // RAMP_BLOCK)
    coarse = np.exp(2j * np.pi * freqs * (RAMP_BLOCK * np.arange(blocks)))
    fine = np.exp(2j * np.pi * freqs * np.arange(RAMP_BLOCK))
    return coarse, fine


def phase_ramp(freqs, n: int) -> np.ndarray:
    """(F, n) array of exp(j 2 pi f kappa), kappa = 0..n-1, for the F
    frequencies ``freqs`` (cycles per sample; a scalar gives F = 1).

    Each row is the outer product of the factors of ``ramp_factors``,
    reshaped and cut to n: ceil(n/B) + B exponentials per frequency instead
    of n.  Rounding: each exponential is good to a few ulps, and its phase
    argument rounds with relative error 2**-53, as in a direct exp; so the
    product differs from exp(j 2 pi f kappa) by at most a few ulps times
    (1 + 2 pi |f| kappa), about 2e-14 at |f| n = 4.
    """
    coarse, fine = ramp_factors(freqs, n)
    ramp = coarse[:, :, np.newaxis] * fine[:, np.newaxis, :]
    return ramp.reshape(len(fine), -1)[:, :n]


@lru_cache(maxsize=16)
def cfo_rotation(cfo_value: float, n_s: int) -> np.ndarray:
    """exp(j 2 pi eps kappa / N_s) over kappa = 0..N_s - 1 for a CFO eps =
    ``cfo_value`` pinned for every user (``phase_ramp``).  The CFO then
    factors out of the user sum, so the stream at CFO eps is the zero-CFO
    stream times this rotation, which a pinned draw applies to each lane's
    stream before the receiver reads it (``harness.draw_trial``); every draw
    of a ``cfo_value`` point reads it, so it is made once per point;
    read-only."""
    ramp = phase_ramp(cfo_value / n_s, n_s)[0]
    ramp.flags.writeable = False
    return ramp


def delayed_copies(streams: np.ndarray, users: np.ndarray, shifts: np.ndarray,
                   length: int | None = None) -> np.ndarray:
    """(len(shifts), length) rows streams[users[i], kappa - shifts[i]] for
    kappa = 0..length-1 (length >= the streams', which is the default),
    zero outside the stream: rows of the strided window view of one
    zero-padded (Q, pad + length) copy of the (Q, N_s) streams."""
    length = streams.shape[-1] if length is None else length
    pad = int(np.max(shifts))
    padded = np.zeros((streams.shape[0], pad + length), dtype=complex)
    padded[:, pad:pad + streams.shape[-1]] = streams
    return sliding_window_view(padded, length, axis=-1)[users, pad - np.asarray(shifts)]


@dataclass
class PathSet:
    """One user's channel paths: complex gains, integer sample delays, and
    per-path Doppler shifts in cycles per sample."""

    gains: np.ndarray
    delays: np.ndarray
    dopplers: np.ndarray

    def taps(self, kappa: np.ndarray, n_taps: int) -> np.ndarray:
        """(n_taps, *kappa.shape) array of h[l, kappa] = sum_i h_i
        exp(j 2 pi nu_i (kappa - l)) over the paths at delay l; paths at
        delays >= n_taps are left out."""
        kappa = np.asarray(kappa, dtype=float)
        column = (-1,) + (1,) * kappa.ndim
        terms = self.gains.reshape(column) * np.exp(
            2j * np.pi * self.dopplers.reshape(column) * (kappa - self.delays.reshape(column)))
        # row l of the 0/1 selector sums the paths at delay l
        select = np.arange(n_taps)[:, np.newaxis] == self.delays
        return (select @ terms.reshape(self.delays.size, -1)).reshape((n_taps,) + kappa.shape)

    @staticmethod
    def apply(users: list[PathSet], streams: np.ndarray, thetas: np.ndarray,
              cfo_freqs: np.ndarray) -> np.ndarray:
        """The users' summed received samples for kappa = 0..N_s-1: each
        user's stream of the (Q, N_s) ``streams`` delayed by its ``thetas``
        entry, passed through its taps and rotated by its CFO ``cfo_freqs``
        (cycles per sample, eps/N_s).

        Folding the user's CFO into each path's frequency f_i = nu_i +
        cfo_freq gives r[kappa] = sum_i (h_i exp(-j 2 pi nu_i d_i))
        exp(j 2 pi f_i kappa) s[kappa - d_i - theta], summed over the paths
        of all Q users.  With kappa = B*a + b, the delayed copies of
        ``delayed_copies`` reshape to (paths, a, b) blocks; the fine factors
        of ``ramp_factors`` scale them in place, and one batched
        (a, 1, paths) @ (a, paths, b) product contracts them with the coarse
        factors (times the gains), so the copies are the only (paths, N_s)
        array allocated.  Rounding is that of ``phase_ramp``, a few ulps
        times 1 + 2 pi |f_i| kappa.
        """
        owner = np.repeat(np.arange(len(users)), [p.gains.size for p in users])
        delays = np.concatenate([p.delays for p in users])
        dopplers = np.concatenate([p.dopplers for p in users])
        gains = np.concatenate([p.gains for p in users]) * np.exp(-2j * np.pi * dopplers * delays)
        n_s = streams.shape[-1]
        coarse, fine = ramp_factors(dopplers + cfo_freqs[owner], n_s)
        blocks = coarse.shape[1]
        copies = delayed_copies(streams, owner, delays + thetas[owner], blocks * RAMP_BLOCK)
        copies = copies.reshape(len(gains), blocks, RAMP_BLOCK)
        copies *= fine[:, np.newaxis, :]
        out = (gains[:, np.newaxis] * coarse).T[:, np.newaxis, :] @ copies.transpose(1, 0, 2)
        return out.reshape(-1)[:n_s]


@dataclass
class BemPathSet:
    """One user's taps as random Chebyshev series (trajectories inside the
    default estimator's model class; ``draw_realization`` takes the order
    from the Doppler spread, ``default_bem_order(nu_max_t)``)."""

    delays: np.ndarray          # (D,) int, distinct
    coeffs: np.ndarray          # (D, order) complex
    n_s: int

    def taps(self, kappa: np.ndarray, n_taps: int) -> np.ndarray:
        """(n_taps, *kappa.shape) array of h[l, kappa] = sum_g coeffs[d, g]
        T_g(kprime) for the row d at delay l, on the estimator's basis; rows
        at delays >= n_taps are left out."""
        basis = build_bem_basis(self.coeffs.shape[1], kappa, self.n_s)
        out = np.zeros((n_taps,) + basis.shape[:-1], dtype=complex)
        for delay, c in zip(self.delays, self.coeffs):
            if delay < n_taps:
                out[delay] += np.sum(basis * c, axis=-1)
        return out

    @staticmethod
    def apply(users: list[BemPathSet], streams: np.ndarray, thetas: np.ndarray,
              cfo_freqs: np.ndarray) -> np.ndarray:
        """The users' summed received samples for kappa = 0..N_s-1 (see
        ``PathSet.apply``); the users share the basis order.

        The basis is shared by the taps, so r[kappa] = sum_g T_g(kprime)
        sum_q sum_d coeffs_q[d, g] exp(j 2 pi cfo_freq_q kappa)
        s_q[kappa - d - theta_q]: the ramps of ``phase_ramp`` scale every
        user's delayed copies in place, one (order, Q*D) @ (Q*D, N_s)
        product mixes all of them, and the cached ``frame_basis`` weights
        the rows of the mix.
        """
        sizes = [p.delays.size for p in users]
        owner = np.repeat(np.arange(len(users)), sizes)
        shifts = np.concatenate([p.delays for p in users]) + thetas[owner]
        coeffs = np.concatenate([p.coeffs for p in users])     # (Q*D, order)
        n_s = streams.shape[-1]
        copies = delayed_copies(streams, owner, shifts)
        for rows, ramp in zip(np.split(copies, np.cumsum(sizes)[:-1]),
                              phase_ramp(cfo_freqs, n_s)):
            rows *= ramp
        mixed = coeffs.T @ copies
        return np.einsum("kg,gk->k", frame_basis(coeffs.shape[1], n_s), mixed)


@dataclass
class ChannelRealization:
    """Ground truth for one trial: per-user paths, timing and carrier offsets."""

    paths: list[PathSet]
    to: np.ndarray      # integer samples, one per user
    cfo: np.ndarray     # Doppler-spacing units, one per user

    @property
    def num_users(self) -> int:
        return len(self.paths)

def generate_eva_channel(rng, nu_max_t: float, n_s: int, len_cap: int = 10) -> PathSet:
    """Random EVA realization: Rayleigh gains on the quantized profile and
    one Doppler shift nu_max*cos(psi) per tap, psi uniform on [0, 2pi)."""
    delays, powers = eva_profile(len_cap)
    n_taps = len(delays)
    gains = np.sqrt(powers / 2.0) * (rng.standard_normal(n_taps)
                                     + 1j * rng.standard_normal(n_taps))
    nu_max = nu_max_t / n_s  # cycles per sample
    dopplers = nu_max * np.cos(rng.uniform(0.0, 2.0 * np.pi, n_taps))
    return PathSet(gains=gains, delays=delays.copy(), dopplers=dopplers)


def generate_single_tap(rng, nu_max_t: float, n_s: int) -> PathSet:
    """One Rayleigh tap at delay zero."""
    gain = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)
    nu = (nu_max_t / n_s) * np.cos(rng.uniform(0.0, 2.0 * np.pi))
    return PathSet(gains=np.array([gain]), delays=np.array([0]),
                   dopplers=np.array([nu]))


def identity_pathset() -> PathSet:
    return PathSet(gains=np.array([1.0 + 0.0j]), delays=np.array([0]),
                   dopplers=np.array([0.0]))


def generate_eva_bem_channel(rng, n_s: int, order: int, len_cap: int = 10) -> BemPathSet:
    """EVA profile with tap trajectories drawn as random Chebyshev series.

    Tap powers follow the quantized EVA profile; each tap's time variation is
    an order-``order`` series with i.i.d. Gaussian coefficients scaled so the
    frame-average tap power matches the profile (T_g has mean square 1/2 over
    the frame for g >= 1).
    """
    delays, powers = eva_profile(len_cap)
    scale = powers / (1.0 + (order - 1) / 2.0)
    coeffs = (rng.standard_normal((len(delays), order))
              + 1j * rng.standard_normal((len(delays), order)))
    coeffs *= np.sqrt(scale[:, None] / 2.0)
    return BemPathSet(delays=delays.copy(), coeffs=coeffs, n_s=n_s)


def draw_realization(rng, cfg: SystemConfig) -> ChannelRealization:
    """Per-trial draw: channel paths per the config model, TO uniform on
    [0, theta_max], CFO uniform on [-cfo_max, cfo_max].  An ``eva-bem``
    channel has the order ``default_bem_order(nu_max_t)`` of its own, so a
    ``bem_order`` override changes the estimator and not the channel."""
    paths = []
    for _ in range(cfg.num_users):
        if cfg.channel_model == "eva":
            paths.append(generate_eva_channel(rng, cfg.nu_max_t, cfg.n_s,
                                              cfg.channel_len_cap))
        elif cfg.channel_model == "eva-bem":
            paths.append(generate_eva_bem_channel(rng, cfg.n_s, default_bem_order(cfg.nu_max_t),
                                                  cfg.channel_len_cap))
        elif cfg.channel_model == "single-tap":
            paths.append(generate_single_tap(rng, cfg.nu_max_t, cfg.n_s))
        else:
            paths.append(identity_pathset())
    to = rng.integers(0, cfg.theta_max + 1, size=cfg.num_users)
    cfo = rng.uniform(-cfg.cfo_max, cfg.cfo_max, size=cfg.num_users)
    return ChannelRealization(paths=paths, to=to, cfo=cfo)


def apply_channel(streams, realization: ChannelRealization, n_s: int,
                  theta_max: int) -> np.ndarray:
    """Noiseless multi-user receive stream.

    r[k] = sum_q exp(j 2 pi eps_q k / N_s) * sum_l s_q[k - l - theta_q] h_q[l, k]
    for k = 0..N_s-1; samples before a user's frame start are zero.

    ``streams`` holds one N_s-sample stream per user, as the (Q, N_s) array
    of ``modem.transmit``.  All users go through one batched pass of their
    path model's ``apply``, so they must share one model: the delays of
    every user are rows of one zero-padded (Q, .) window view, and every
    phase factor is the separable ramp exp(j 2 pi f B a) exp(j 2 pi f b),
    k = B*a + b, of ``phase_ramp``.  The result differs from the formula
    evaluated directly by rounding only, a few ulps times 1 + 2 pi |f| k
    per phase.
    """
    if len(streams) != realization.num_users:
        raise RealizationError(f"{len(streams)} streams for {realization.num_users} users")
    for q, (s, theta) in enumerate(zip(streams, realization.to)):
        if theta > theta_max:
            raise RealizationError(
                f"user {q}: timing offset {theta} exceeds theta_max={theta_max}"
            )
        if np.size(s) != n_s:
            raise RealizationError(f"user {q}: stream length {np.size(s)} != N_s={n_s}")
    model = type(realization.paths[0])
    if any(type(paths) is not model for paths in realization.paths):
        raise RealizationError("the users of one realization must share a path model")
    return model.apply(realization.paths, np.asarray(streams), np.asarray(realization.to),
                       np.asarray(realization.cfo) / n_s)


def unit_noise(rng, shape) -> np.ndarray:
    """Complex Gaussian noise of variance 2 per sample, standard_normal +
    1j*standard_normal with the real parts drawn first: the draw that
    ``add_awgn`` scales to the SNR."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def noise_amplitude(snr_db: float) -> float:
    """The scale a = sqrt(sigma^2 / 2) of the ``unit_noise`` at the
    data-symbol SNR (unit data power): 0.0 at infinite SNR."""
    if math.isinf(snr_db):
        return 0.0
    return math.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)


def add_awgn(stream: np.ndarray, snr_db: float, noise: np.ndarray) -> np.ndarray:
    """Circular complex AWGN at the data-symbol SNR: stream + a * noise for
    the ``unit_noise`` array ``noise`` of the stream's shape and its
    ``noise_amplitude`` a.  At infinite SNR the stream is returned as a copy.
    Every step before the receiver's two nonlinear ones (``sync``) is linear,
    so the noise may be added to any of their outputs, given that step's
    output for the unit noise."""
    stream = np.asarray(stream)
    if stream.size == 0:
        raise RealizationError("empty stream")
    if np.isinf(snr_db):
        return stream.copy()
    return stream + noise_amplitude(snr_db) * noise
