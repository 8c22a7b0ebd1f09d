"""Transmit chain and the receiver's cyclic-prefix removal.

Grids are M x N complex arrays with the delay index along rows and the
Doppler (or time-slot) index along columns.  Serialization is always
column-major (delay index fastest), so sample ``n*M + l`` of a serialized
frame is delay row ``l`` of time slot ``n``.  The transmit functions take
a leading user axis: a (Q, M, N) stack of frames gives (Q, ...) streams.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

#: 4-QAM points with exact unit average power
QAM4 = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


def modulate(dd: np.ndarray) -> np.ndarray:
    """Delay-Doppler -> delay-time: unitary IDFT along the Doppler (last)
    axis of an (M, N) grid or a (..., M, N) stack of them.

    X[l, n] = (1/sqrt(N)) * sum_k D[l, k] * exp(j 2 pi k n / N)
    """
    n = dd.shape[-1]
    return np.fft.ifft(dd, axis=-1) * np.sqrt(n)


def serialize(dt: np.ndarray) -> np.ndarray:
    """vec of each delay-time frame, delay index fastest: (M, N) -> (M*N,),
    (..., M, N) -> (..., M*N)."""
    dt = np.asarray(dt)
    return np.swapaxes(dt, -1, -2).reshape(dt.shape[:-2] + (-1,))


def add_cp(streams, cp_len: int) -> np.ndarray:
    """Prefix the last ``cp_len`` samples of each serialized frame (the last
    axis of ``streams``)."""
    x = np.asarray(streams)
    if cp_len >= x.shape[-1]:
        raise ConfigError(f"cp_len={cp_len} must be < frame length {x.shape[-1]}")
    if cp_len == 0:
        return x.copy()
    return np.concatenate([x[..., -cp_len:], x], axis=-1)


def remove_cp(stream: np.ndarray, n_drop: int, out_len: int | None = None) -> np.ndarray:
    """Drop the first ``n_drop`` samples of a stream, or of each row of a
    (..., samples) stack of them."""
    stream = np.asarray(stream)
    size = stream.shape[-1]
    if not 0 <= n_drop <= size:
        raise ConfigError(f"cannot drop {n_drop} samples from a {size}-sample stream")
    out = stream[..., n_drop:]
    if out_len is not None and out.shape[-1] != out_len:
        raise ConfigError(f"expected {out_len} samples after CP removal, got {out.shape[-1]}")
    return out


def transmit(dd: np.ndarray, cp_len: int) -> np.ndarray:
    """Full transmit chain: modulate, serialize, prefix the CP.  An (M, N)
    frame gives one N_s-sample stream; the (Q, M, N) stack of every user's
    frame gives the (Q, N_s) streams from one IFFT."""
    return add_cp(serialize(modulate(dd)), cp_len)


def qam4_symbols(rng: np.random.Generator, size) -> np.ndarray:
    return QAM4[rng.integers(0, 4, size=size)]


def build_data_frame(rng, m, n, band, guard_rows=()) -> np.ndarray:
    """Random unit-power 4-QAM on the user's Doppler bins, zeros elsewhere.

    ``band`` is the (N,) mask of the Doppler bins that the user's receive
    filter passes (``sync.doppler_mask``); the user's data and pilot both
    lie in that band.  ``guard_rows`` (the shared pilot delay span) are kept
    at zero for every user; the pilot is written separately.
    """
    frame = np.zeros((m, n), dtype=complex)
    rows = np.ones(m, dtype=bool)
    rows[list(guard_rows)] = False
    block = np.ix_(rows, band)
    frame[block] = qam4_symbols(rng, (block[0].size, block[1].size))
    return frame
