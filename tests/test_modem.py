"""Transmit chain transforms against naive DFT / explicit matrix oracles."""

import numpy as np
import pytest

from otfsync import modem
from otfsync.errors import ConfigError


def dft_matrix(n):
    """Normalized DFT matrix F[l, k] = exp(-j 2 pi l k / n) / sqrt(n)."""
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def test_modulate_zeros():
    assert np.all(modem.modulate(np.zeros((4, 4))) == 0)


def test_modulate_dc_doppler_bin():
    dd = np.zeros((8, 4), dtype=complex)
    dd[3, 0] = 1.0
    dt = modem.modulate(dd)
    assert np.allclose(dt[3, :], 1 / np.sqrt(4))
    dt[3, :] = 0
    assert np.allclose(dt, 0)


def test_modulate_matches_naive_sum():
    rng = np.random.default_rng(0)
    dd = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    dt = modem.modulate(dd)
    n = 4
    oracle = np.zeros_like(dd)
    for l in range(5):
        for t in range(n):
            acc = 0.0
            for k in range(n):
                acc += dd[l, k] * np.exp(2j * np.pi * k * t / n)
            oracle[l, t] = acc / np.sqrt(n)
    assert np.max(np.abs(dt - oracle)) < 1e-12


def test_add_cp_cases():
    assert np.array_equal(modem.add_cp(np.arange(4.0), 0), np.arange(4.0))
    out = modem.add_cp(np.array([0.0, 1.0, 2.0, 3.0]), 2)
    assert np.array_equal(out, [2, 3, 0, 1, 2, 3])
    with pytest.raises(ConfigError):
        modem.add_cp(np.arange(4.0), 4)


def test_add_cp_matches_matrix_oracle():
    rng = np.random.default_rng(1)
    m, n, cp = 4, 3, 5
    frame = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    x = modem.serialize(frame)
    # A_cp = [J_cp; I], J_cp = last cp rows of the identity
    a_cp = np.vstack([np.eye(m * n)[-cp:, :], np.eye(m * n)])
    assert np.array_equal(modem.add_cp(x, cp), a_cp @ x)


def test_transmit_of_a_frame_stack_is_the_stack_of_transmits():
    rng = np.random.default_rng(8)
    frames = rng.standard_normal((3, 6, 4)) + 1j * rng.standard_normal((3, 6, 4))
    streams = modem.transmit(frames, 5)
    assert streams.shape == (3, 6 * 4 + 5)
    for frame, stream in zip(frames, streams):
        assert np.array_equal(stream, modem.transmit(frame, 5))
        assert np.array_equal(stream[5:], modem.serialize(modem.modulate(frame)))


def test_remove_cp():
    assert np.array_equal(modem.remove_cp(np.array([9, 8, 7, 6]), 2), [7, 6])
    assert np.array_equal(modem.remove_cp(np.arange(3), 0), np.arange(3))
    x = np.arange(12.0)
    assert np.array_equal(modem.remove_cp(modem.add_cp(x, 4), 4), x)
    with pytest.raises(ConfigError):
        modem.remove_cp(np.arange(3), 5)
    with pytest.raises(ConfigError):
        modem.remove_cp(np.arange(6), 2, out_len=3)


def test_demodulate_round_trip():
    rng = np.random.default_rng(2)
    dd = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    back = modem.demodulate(modem.serialize(modem.modulate(dd)), 8, 4)
    assert np.max(np.abs(back - dd)) < 1e-12


def test_demodulate_matches_kronecker_oracle():
    rng = np.random.default_rng(3)
    m = n = 4
    stream = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
    oracle = np.kron(dft_matrix(n), np.eye(m)) @ stream
    got = modem.demodulate(stream, m, n).flatten(order="F")
    assert np.max(np.abs(got - oracle)) < 1e-12


def test_vec_convention_is_column_major():
    # serialize must interleave delay fastest so (F^H kron I) matches modulate
    rng = np.random.default_rng(4)
    m, n = 4, 4
    dd = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    x = modem.serialize(modem.modulate(dd))
    oracle = np.kron(dft_matrix(n).conj().T, np.eye(m)) @ dd.flatten(order="F")
    assert np.max(np.abs(x - oracle)) < 1e-12


def test_energy_and_linearity():
    rng = np.random.default_rng(5)
    d1 = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
    d2 = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
    e_in = np.linalg.norm(d1) ** 2
    e_out = np.linalg.norm(modem.modulate(d1)) ** 2
    assert abs(e_out - e_in) / e_in < 1e-10
    a, b = 1.3 - 0.2j, -0.7j
    lhs = modem.modulate(a * d1 + b * d2)
    rhs = a * modem.modulate(d1) + b * modem.modulate(d2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_qam_unit_power_exact():
    assert np.allclose(np.abs(modem.QAM4) ** 2, 1.0, atol=1e-12)
    rng = np.random.default_rng(6)
    syms = modem.qam4_symbols(rng, 1000)
    assert np.allclose(np.abs(syms) ** 2, 1.0, atol=1e-12)


def test_data_frame_respects_guard_rows():
    from otfsync.allocation import build_allocation
    rng = np.random.default_rng(7)
    alloc = build_allocation(16, 8, 2, "contiguous-doppler")[0]
    frame = modem.build_data_frame(rng, 16, 8, alloc, guard_rows=range(12, 16))
    assert np.all(frame[12:, :] == 0)
    assert np.all(frame[:12, 4:] == 0)  # other user's bins stay empty
    assert np.all(np.abs(frame[:12, :4]) > 0)
