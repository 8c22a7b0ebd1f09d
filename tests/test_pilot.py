"""Zadoff-Chu pilot construction and grid embedding."""

import numpy as np
import pytest

from dd_oracle import pilot_region_ref, timing_template
from otfsync import pilot
from otfsync.config import SystemConfig
from otfsync.errors import ConfigError, PlacementError


def circular_autocorr(seq, lag):
    return np.sum(seq * np.conj(np.roll(seq, lag)))


def test_zc_ideal_autocorrelation():
    zc = pilot.zadoff_chu(10, 1)
    assert np.allclose(np.abs(zc), 1.0, atol=1e-12)
    for lag in range(1, 10):
        assert abs(circular_autocorr(zc, lag)) < 1e-12


@pytest.mark.parametrize("zc_len,root", [(10, 3), (13, 1), (13, 5), (16, 7)])
def test_zc_autocorrelation_other_roots(zc_len, root):
    zc = pilot.zadoff_chu(zc_len, root)
    for lag in range(1, zc_len):
        assert abs(circular_autocorr(zc, lag)) < 1e-12


def test_non_coprime_root_rejected():
    with pytest.raises(ConfigError, match="coprime"):
        pilot.make_pcp(10, root=2)


def test_pcp_prefix_copy_property():
    pcp = pilot.make_pcp(10, 1, pilot_power_db=40.0)
    assert pcp.size == 19
    assert np.array_equal(pcp[:9], pcp[10:])
    assert np.allclose(np.abs(pcp), 10 ** (40.0 / 20.0))


def test_pcp_length_one():
    pcp = pilot.make_pcp(1, 1, pilot_power_db=0.0)
    assert pcp.size == 1
    assert pcp[0] == pytest.approx(1.0)


def pilot_bins(cfg):
    return [cfg.pilot_bin(q) for q in range(cfg.num_users)]


def test_placement_doppler_bins():
    # base case: offset 0 reproduces bins spaced by floor(N/Q)
    assert pilot_bins(SystemConfig(num_users=2, pilot_offset=0).validate()) == [0, 16]
    # centered default from config
    assert pilot_bins(SystemConfig(num_users=2).validate()) == [8, 24]
    assert pilot_bins(SystemConfig(num_users=4).validate()) == [4, 12, 20, 28]


def test_placement_shared_delay_span():
    cfg = SystemConfig(num_users=4, pilot_anchor=118, pilot_offset=0).validate()
    assert cfg.delay_lo == 109 and cfg.delay_hi == 127
    assert list(pilot.guard_rows(cfg)) == list(range(109, 128))


def test_embed_single_user():
    cfg = SystemConfig(num_users=1).validate()
    pcp = pilot.make_pcp(cfg.zc_len, 1, cfg.pilot_power_db)
    frames = pilot.embed_pilots([np.zeros((cfg.m, cfg.n), complex)], cfg, pcp)
    nz_cols = np.flatnonzero(np.abs(frames[0]).sum(axis=0))
    assert nz_cols.tolist() == [cfg.pilot_bin(0)]


def test_embed_total_pilot_energy():
    cfg = SystemConfig(num_users=2).validate()
    pcp = pilot.make_pcp(cfg.zc_len, 1, cfg.pilot_power_db)
    frames = pilot.embed_pilots([np.zeros((cfg.m, cfg.n), complex)] * 2, cfg, pcp)
    for frame in frames:
        energy = np.sum(np.abs(frame) ** 2)
        assert energy == pytest.approx((2 * cfg.zc_len - 1) * 10 ** 4.0)


def test_embed_guard_region_kept_clear():
    cfg = SystemConfig(num_users=2).validate()
    pcp = pilot.make_pcp(cfg.zc_len, 1, cfg.pilot_power_db)
    frames = pilot.embed_pilots([np.zeros((cfg.m, cfg.n), complex)] * 2, cfg, pcp)
    rows = slice(cfg.delay_lo, cfg.delay_hi + 1)
    for q, frame in enumerate(frames):
        others = np.delete(np.abs(frame[rows, :]), cfg.pilot_bin(q), axis=1)
        assert np.all(others == 0)


def test_embed_rejects_data_collision():
    cfg = SystemConfig(num_users=2).validate()
    pcp = pilot.make_pcp(cfg.zc_len, 1, cfg.pilot_power_db)
    dirty = np.zeros((cfg.m, cfg.n), complex)
    dirty[cfg.delay_lo + 2, 3] = 1.0
    with pytest.raises(PlacementError, match="pilot delay span"):
        pilot.embed_pilots([dirty, np.zeros_like(dirty)], cfg, pcp)


def test_spectral_accounting_independent_of_q():
    # the shared region occupies (2 L_p - 1) * N bins regardless of Q
    for q in (1, 2, 4):
        cfg = SystemConfig(num_users=q).validate()
        assert len(pilot.guard_rows(cfg)) * cfg.n == (2 * cfg.zc_len - 1) * cfg.n


def test_pilot_delay_time_structure():
    # delay-time pilot column n = pcp values scaled by exp(j 2 pi k_p n / N)/sqrt(N)
    cfg = SystemConfig(num_users=2).validate()
    pcp = pilot.make_pcp(cfg.zc_len, 1, cfg.pilot_power_db)
    dt = timing_template(cfg, pcp, user=1)
    k_p = cfg.pilot_bin(1)
    for n in range(cfg.n):
        expected = pcp * np.exp(2j * np.pi * k_p * n / cfg.n) / np.sqrt(cfg.n)
        assert np.max(np.abs(dt[cfg.delay_lo:cfg.delay_hi + 1, n] - expected)) < 1e-9
    outside = np.delete(dt, pilot.guard_rows(cfg), axis=0)
    assert np.max(np.abs(outside)) < 1e-12


@pytest.mark.parametrize("num_users", [1, 2, 4, 7])
def test_pilot_region_ref_is_slot_phase_times_shared_template(num_users):
    # the users' pilots differ only by a phase per time slot, which is what
    # lets every user's de-rotated region share one Doppler-free template
    for zc_len in (1, 2, 7, 10):
        for root in (1, 3):
            cfg = SystemConfig(num_users=num_users, zc_len=zc_len, zc_root=root).validate()
            pcp = pilot.make_pcp(cfg.zc_len, root, cfg.pilot_power_db)
            row = pilot.region_pilot(cfg, pcp)
            assert row.shape == (zc_len,)
            for user in range(num_users):
                phase = pilot.slot_phase(cfg, user)
                assert phase.shape == (cfg.n,)
                # cached per (N, pilot bin), read-only
                assert pilot.slot_phase(cfg, user) is phase and not phase.flags.writeable
                want = pilot_region_ref(cfg, pcp, user)
                got = np.outer(phase, row)
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), \
                    (zc_len, root, user)


def test_region_index_is_cached_read_only_and_wraps_the_last_slot():
    # tests/test_sync.py::test_extraction_wrap_indices checks every slot
    # against the vectorized formula
    cfg = SystemConfig(num_users=2).validate()
    size = cfg.m * cfg.n
    for theta in range(cfg.theta_max + 1):
        idx = pilot.region_index(cfg, theta)
        assert idx.shape == (cfg.n, cfg.zc_len)
        # delay rows past M - 1 of the last slot wrap to the head of the stream
        last = (cfg.n - 1) * cfg.m + cfg.anchor + theta + np.arange(cfg.zc_len)
        assert np.array_equal(idx[-1], np.where(last < size, last, last - size))
        assert (idx[-1] < cfg.m).sum() == theta
        assert pilot.region_index(cfg, theta) is idx
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0, 0] = 0
    # the cache key is the pilot geometry alone: configs that differ elsewhere
    # (the SNR of every sweep point, the user count, the Doppler offset) share it
    other = SystemConfig(num_users=4, pilot_offset=1, snr_db=0.0).validate()
    assert pilot.region_index(other, 2) is pilot.region_index(cfg, 2)
