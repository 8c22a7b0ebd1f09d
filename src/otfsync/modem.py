"""Per-user transmit chain and the inverse receive transforms.

Grids are M x N complex arrays with the delay index along rows and the
Doppler (or time-slot) index along columns.  Serialization is always
column-major (delay index fastest), so sample ``n*M + l`` of a serialized
frame is delay row ``l`` of time slot ``n``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

#: 4-QAM points with exact unit average power
QAM4 = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


def modulate(dd: np.ndarray) -> np.ndarray:
    """Delay-Doppler -> delay-time: unitary IDFT along the Doppler axis.

    X[l, n] = (1/sqrt(N)) * sum_k D[l, k] * exp(j 2 pi k n / N)
    """
    n = dd.shape[1]
    return np.fft.ifft(dd, axis=1) * np.sqrt(n)


def serialize(dt: np.ndarray) -> np.ndarray:
    """vec of a delay-time frame, delay index fastest."""
    return dt.flatten(order="F")


def add_cp(frame, cp_len: int) -> np.ndarray:
    """Prefix the last ``cp_len`` samples of the serialized frame."""
    x = serialize(frame) if np.ndim(frame) == 2 else np.asarray(frame)
    if cp_len >= x.size:
        raise ConfigError(f"cp_len={cp_len} must be < frame length {x.size}")
    if cp_len == 0:
        return x.copy()
    return np.concatenate([x[-cp_len:], x])


def remove_cp(stream: np.ndarray, n_drop: int, out_len: int | None = None) -> np.ndarray:
    """Drop the first ``n_drop`` samples."""
    stream = np.asarray(stream)
    if not 0 <= n_drop <= stream.size:
        raise ConfigError(f"cannot drop {n_drop} samples from a {stream.size}-sample stream")
    out = stream[n_drop:]
    if out_len is not None and out.size != out_len:
        raise ConfigError(f"expected {out_len} samples after CP removal, got {out.size}")
    return out


def demodulate(stream: np.ndarray, m: int, n: int) -> np.ndarray:
    """Length-M*N stream -> delay-Doppler grid (unitary DFT along time)."""
    stream = np.asarray(stream)
    if stream.size != m * n:
        raise ConfigError(f"expected {m * n} samples, got {stream.size}")
    grid = stream.reshape(m, n, order="F")
    return np.fft.fft(grid, axis=1) / np.sqrt(n)


def transmit(dd: np.ndarray, cp_len: int) -> np.ndarray:
    """Full transmit chain: modulate, serialize, prefix the CP."""
    return add_cp(modulate(dd), cp_len)


def qam4_symbols(rng: np.random.Generator, size) -> np.ndarray:
    return QAM4[rng.integers(0, 4, size=size)]


def build_data_frame(rng, m, n, alloc, guard_rows=()) -> np.ndarray:
    """Random unit-power 4-QAM on the user's bins, zeros elsewhere.

    ``guard_rows`` (the shared pilot delay span) are kept at zero for every
    user; the pilot is written separately.
    """
    frame = np.zeros((m, n), dtype=complex)
    guard = set(guard_rows)
    rows = np.asarray([l for l in alloc.delay_bins if l not in guard], dtype=int)
    cols = np.asarray(alloc.doppler_bins, dtype=int)
    if rows.size and cols.size:
        frame[np.ix_(rows, cols)] = qam4_symbols(rng, (rows.size, cols.size))
    return frame
