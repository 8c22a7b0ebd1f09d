"""Filter bank, timing metric, BEM regressor, and ML CFO estimation."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.chebyshev import chebvander

from otfsync import channel as chan
from otfsync import modem, pilot, sync
from otfsync.config import BEM_ORDER_CAP, SystemConfig
from otfsync.errors import ConfigError, EstimationError
from dd_oracle import pilot_region_ref, timing_template
from sync_oracle import (DenseRegressor, assert_same_timing, bundle_template,
                         cfo_cost_derivatives, dense_regressor, estimate_cfo_exact,
                         front_end_chain, newton_max, own_bundle_back_end, regressor_matrix,
                         separate_user_one, timing_correlate_one, timing_correlate_template)


def paper_config(**kw):
    base = dict(num_users=2, snr_db=math.inf)
    base.update(kw)
    return SystemConfig(**base).validate()


def transmit_pilot_only(cfg, pcp, realization, users=None):
    """Noiseless receive stream carrying only the pilots."""
    frames = pilot.embed_pilots(
        [np.zeros((cfg.m, cfg.n), complex) for _ in range(cfg.num_users)], cfg, pcp)
    streams = []
    for q, frame in enumerate(frames):
        if users is not None and q not in users:
            streams.append(np.zeros(cfg.n_s, complex))
        else:
            streams.append(modem.transmit(frame, cfg.cp_len))
    r = chan.apply_channel(streams, realization, cfg.n_s, cfg.theta_max)
    return modem.remove_cp(r[cfg.theta_max:], cfg.cp_rem)


# ---------------------------------------------------------------------------
# filter bank
# ---------------------------------------------------------------------------

def bank_config(m, n, num_users):
    """The (unvalidated) config of a filter bank of Q users on an M x N grid."""
    return SystemConfig(m=m, n=n, num_users=num_users)


def separate(stream, cfg):
    """The (Q, M*N) separated streams of a serialized (M*N,) stream: every
    user's ``sync.separate_user`` of its whole slot-major (N, M) grid."""
    grid = np.asarray(stream).reshape(cfg.n, cfg.m)
    return np.stack([sync.separate_user(grid, cfg, user).reshape(-1)
                     for user in range(cfg.num_users)])


def test_separate_single_user_all_pass():
    rng = np.random.default_rng(0)
    stream = rng.standard_normal(16 * 8) + 1j * rng.standard_normal(16 * 8)
    out = separate(stream, bank_config(16, 8, 1))[0]
    assert np.max(np.abs(out - stream)) < 1e-12


def test_separate_passes_own_bins_blocks_others():
    m, n, q = 8, 16, 4
    rng = np.random.default_rng(1)
    own = np.zeros((m, n), complex)
    own[:, 4:8] = rng.standard_normal((m, 4)) + 1j * rng.standard_normal((m, 4))
    other = np.zeros((m, n), complex)
    other[:, [0, 9, 13]] = rng.standard_normal((m, 3))
    to_stream = lambda grid: modem.serialize(modem.modulate(grid))
    kept = separate(to_stream(own), bank_config(m, n, q))[1]
    assert np.max(np.abs(kept - to_stream(own))) < 1e-10
    removed = separate(to_stream(other), bank_config(m, n, q))[1]
    assert np.max(np.abs(removed)) < 1e-10


def test_separate_matches_circulant_kronecker_oracle():
    m, n, q = 4, 8, 2
    rng = np.random.default_rng(2)
    stream = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
    bank = separate(stream, bank_config(m, n, q))
    for user in range(q):
        mask = sync.doppler_mask(bank_config(m, n, q), user).astype(float)
        f = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
        # unit-gain circulant: first column F^H a / sqrt(N)
        e = f.conj().T @ mask / np.sqrt(n)
        circ = np.zeros((n, n), complex)
        for c in range(n):
            circ[:, c] = np.roll(e, c)
        oracle = np.kron(circ.conj().T, np.eye(m)) @ stream
        assert np.max(np.abs(bank[user] - oracle)) < 1e-10


def test_filter_bank_completeness():
    m, n, q = 8, 12, 3
    rng = np.random.default_rng(3)
    stream = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
    total = separate(stream, bank_config(m, n, q)).sum(axis=0)
    assert np.max(np.abs(total - stream)) < 1e-10


@settings(max_examples=60, derandomize=True, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 12), data=st.data())
def test_filter_bank_rows_equal_per_user_filters(m, n, data):
    # odd geometries included: each user's filter of the whole grid is bit
    # for bit the user's own DFT -> mask -> IDFT, and of any subset of its
    # columns, those columns of the whole grid's, alone or stacked
    q = data.draw(st.integers(1, n))
    cols = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    cfg = bank_config(m, n, q)
    rng = np.random.default_rng([5, m, n, q])
    stream = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
    bank = separate(stream, cfg)
    assert bank.shape == (q, m * n)
    grid = stream.reshape(n, m)
    stacked = np.stack([grid[:, cols], grid[:, cols][::-1]])
    for user in range(q):
        assert np.array_equal(bank[user], separate_user_one(stream, user, cfg))
        whole = sync.separate_user(grid, cfg, user)
        assert np.array_equal(sync.separate_user(grid[:, cols], cfg, user), whole[:, cols])
        assert np.array_equal(sync.separate_user(stacked, cfg, user)[0], whole[:, cols])


def test_filter_bank_rows_at_full_geometry():
    cfg = SystemConfig(num_users=4).validate()
    rng = np.random.default_rng(6)
    stream = rng.standard_normal(cfg.m * cfg.n) + 1j * rng.standard_normal(cfg.m * cfg.n)
    bank = separate(stream, cfg)
    for user in range(4):
        assert np.array_equal(bank[user], separate_user_one(stream, user, cfg))


def test_front_end_reads_each_stream_once_and_each_lane_at_its_amplitude():
    cfg = SystemConfig(num_users=4, snr_db=10.0).validate()
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    rng = np.random.default_rng(10)
    rows = rng.standard_normal((3, cfg.n_s)) + 1j * rng.standard_normal((3, cfg.n_s))

    def decided(front):
        # every lane's TO decisions are those of its curves, in one call
        want = sync.estimate_to(front.curves, cfg)
        return (np.array_equal(front.to_estimate.first_peak, want.first_peak)
                and np.array_equal(front.to_estimate.max_peak, want.max_peak))

    # a stream of its own per lane (K = 1), read at a = 0: the front end keeps
    # the CP-removed rows, and each lane's curves are bit for bit those of its
    # stream's correlation, and those of the per-user oracle chain
    front = sync.front_end(rows[:, np.newaxis], [0, 1, 2], [0.0] * 3, pcp, cfg)
    assert front.stream.tolist() == [0, 1, 2] and front.amplitude.tolist() == [0.0] * 3
    assert front.rows.shape == (3, 1, cfg.m * cfg.n)
    for row, kept, curves in zip(rows, front.rows, front.curves):
        y = modem.remove_cp(row[cfg.theta_max:], cfg.cp_rem)
        assert np.array_equal(kept[0], y)
        assert np.array_equal(curves, sync.timing_curve(sync.timing_correlate(y, pcp, cfg), cfg))
        assert_same_timing(curves, sync.timing_curve(front_end_chain(row, pcp, cfg)[1], cfg), cfg)
    assert decided(front)
    # several lanes on one stream of two rows (K = 2), the signal and the
    # unit noise: each lane's curves are those of the rows' correlations
    # summed at its amplitude, the sum that ``channel.add_awgn`` forms
    snrs = (0.0, 20.0, math.inf)
    amplitudes = [chan.noise_amplitude(snr) for snr in snrs]
    front = sync.front_end(rows[np.newaxis, :2], [0, 0, 0], amplitudes, pcp, cfg)
    assert front.stream.tolist() == [0, 0, 0] and front.amplitude.tolist() == amplitudes
    assert front.rows.shape == (1, 2, cfg.m * cfg.n)
    y = modem.remove_cp(rows[:2, cfg.theta_max:], cfg.cp_rem)
    assert np.array_equal(front.rows[0], y)
    corr = sync.timing_correlate(y, pcp, cfg)
    (_, corr_rx), (_, corr_noise) = (front_end_chain(row, pcp, cfg) for row in rows[:2])
    for amplitude, snr, curves in zip(amplitudes, snrs, front.curves):
        assert np.array_equal(curves, sync.timing_curve(corr[0] + amplitude * corr[1], cfg))
        assert_same_timing(
            curves, sync.timing_curve(chan.add_awgn(corr_rx, snr, corr_noise), cfg), cfg)
    assert decided(front)


# ---------------------------------------------------------------------------
# timing metric
# ---------------------------------------------------------------------------

def single_tap_realization(cfg, thetas, cfos=None, gain=1.0):
    paths = [chan.PathSet(gains=np.array([gain]), delays=np.array([0]),
                          dopplers=np.array([0.0]))
             for _ in range(cfg.num_users)]
    cfos = np.zeros(cfg.num_users) if cfos is None else np.asarray(cfos, float)
    return chan.ChannelRealization(paths=paths, to=np.asarray(thetas),
                                   cfo=cfos)


def timing_pipeline(cfg, y, user, pcp):
    """User ``user``'s timing curve of the receive stream ``y``."""
    return sync.timing_curve(sync.timing_correlate(y, pcp, cfg), cfg)[user]


def test_matched_filter_peak_at_zero_offset():
    cfg = paper_config(num_users=1)
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    real = single_tap_realization(cfg, [0])
    y = transmit_pilot_only(cfg, pcp, real)
    curve = timing_pipeline(cfg, y, 0, pcp)
    est = sync.estimate_to(curve, cfg)
    assert est.first_peak == 0 and est.max_peak == 0


def test_metric_shift_equivariance():
    cfg = paper_config(num_users=1, theta_max=4)
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    curves = {}
    for theta in (0, 3):
        real = single_tap_realization(cfg, [theta])
        y = transmit_pilot_only(cfg, pcp, real)
        curves[theta] = timing_pipeline(cfg, y, 0, pcp)
    rolled = np.roll(curves[0], 3)
    assert np.max(np.abs(curves[3] - rolled)) / curves[0].max() < 1e-9


def test_weak_first_tap_first_vs_max_peak():
    # two taps: weak first, strong second -> max peak sits on the strong tap,
    # first peak recovers the true offset
    cfg = paper_config(num_users=1)
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    paths = chan.PathSet(gains=np.array([0.35, 1.0]),
                         delays=np.array([0, 2]),
                         dopplers=np.array([0.0, 0.0]))
    theta = 1
    real = chan.ChannelRealization(paths=[paths], to=np.array([theta]),
                                   cfo=np.array([0.0]))
    y = transmit_pilot_only(cfg, pcp, real)
    curve = timing_pipeline(cfg, y, 0, pcp)
    est = sync.estimate_to(curve, cfg)
    assert est.max_peak == theta + 2
    assert est.first_peak == theta


def test_to_exact_exhaustive_sweep():
    # single-tap noiseless channel: exact for every theta in [0, theta_max],
    # theta_max stretched to 9 (no multipath sidelobes to alias)
    cfg = paper_config(num_users=2, theta_max=9, cp_len=18)
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    for theta in range(10):
        real = single_tap_realization(cfg, [theta, (theta + 5) % 10])
        y = transmit_pilot_only(cfg, pcp, real)
        for user, expected in ((0, theta), (1, (theta + 5) % 10)):
            curve = timing_pipeline(cfg, y, user, pcp)
            est = sync.estimate_to(curve, cfg)
            assert est.first_peak == expected, (theta, user)


def test_threshold_one_reduces_to_max_peak():
    cfg = paper_config(num_users=1)
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    real = single_tap_realization(cfg, [2])
    y = transmit_pilot_only(cfg, pcp, real)
    curve = timing_pipeline(cfg, y, 0, pcp)
    est = sync.estimate_to(curve, replace(cfg, threshold=1.0))
    assert est.first_peak == est.max_peak


@pytest.mark.parametrize("num_users", [1, 2, 3, 4])
def test_pcp_correlation_matches_template_correlation(num_users):
    # a full EVA trial stream with data and noise, at the full geometry; every
    # user's curve against the per-slot correlation with the delay-time pilot
    # template and against the per-user chain's np.correlate, with the same
    # TO decisions.  Q = 3 leaves Doppler bins 30 and 31 in no band, which no
    # row of the folded weights may pass
    cfg = SystemConfig(num_users=num_users, snr_db=10.0).validate()
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    for theta in (0, cfg.theta_max):
        rng = np.random.default_rng([43, num_users, theta])
        real = chan.draw_realization(rng, cfg)
        real.to[:] = theta
        frames = pilot.embed_pilots(
            [modem.build_data_frame(rng, cfg.m, cfg.n, sync.doppler_mask(cfg, q),
                                    pilot.guard_rows(cfg))
             for q in range(num_users)], cfg, pcp)
        rx = chan.apply_channel([modem.transmit(f, cfg.cp_len) for f in frames],
                                real, cfg.n_s, cfg.theta_max)
        rx = chan.add_awgn(rx, cfg.snr_db, chan.unit_noise(rng, rx.shape))
        y = modem.remove_cp(rx[cfg.theta_max:], cfg.cp_rem)
        bank = sync.timing_curve(sync.timing_correlate(y, pcp, cfg), cfg)
        separated, corr = front_end_chain(rx, pcp, cfg)
        assert_same_timing(bank, sync.timing_curve(corr, cfg), cfg)
        for user in range(num_users):
            oracle = timing_correlate_template(
                separated[user], timing_template(cfg, pcp, user), cfg)
            assert np.max(np.abs(bank[user] - oracle)) <= 1e-13 * oracle.max()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(zc_len=st.integers(1, 6), extra_rows=st.integers(0, 9), n=st.integers(1, 9),
       data=st.data())
def test_folded_correlation_matches_np_correlate(zc_len, extra_rows, n, data):
    # odd geometries, where Q often does not divide N, so that the bins past
    # Q*band are in no row of the folded weights; every user against the
    # per-user chain's np.correlate
    m = 2 * zc_len - 1 + extra_rows
    q = data.draw(st.integers(1, n))
    anchor = data.draw(st.integers(zc_len - 1, m - zc_len))
    cp_len = data.draw(st.integers(0, 2 * m))
    cfg = SystemConfig(m=m, n=n, num_users=q, zc_len=zc_len, pilot_anchor=anchor,
                       pilot_offset=0, cp_len=cp_len)
    pcp = pilot.make_pcp(zc_len, 1, 40.0)
    rng = np.random.default_rng([7, m, n, q, zc_len])
    stream = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
    bank = sync.timing_curve(sync.timing_correlate(stream, pcp, cfg), cfg)
    assert bank.shape == (q, m)
    for user in range(q):
        oracle = timing_correlate_one(separate_user_one(stream, user, cfg), pcp, cfg)
        assert np.max(np.abs(bank[user] - oracle)) <= 1e-13 * oracle.max()


def test_estimate_to_rejects_empty_metric():
    with pytest.raises(EstimationError):
        sync.estimate_to(np.zeros(0), SystemConfig())


# ---------------------------------------------------------------------------
# pilot-region extraction
# ---------------------------------------------------------------------------

def region_of(stream, theta, cfg):
    """The (N, L_p) pilot region at ``theta`` of a serialized (M*N,) stream:
    ``sync.extract_pilot_region`` of the region's delay columns of the
    stream's slot-major (N, M) grid."""
    columns = pilot.region_index(cfg, theta)[0] % cfg.m
    return sync.extract_pilot_region(np.asarray(stream).reshape(cfg.n, cfg.m)[:, columns],
                                     theta, cfg)


def test_extraction_recovers_transmitted_pilot():
    cfg = paper_config(num_users=1)
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    real = single_tap_realization(cfg, [0])
    y = transmit_pilot_only(cfg, pcp, real)
    region = region_of(y, 0, cfg)
    sbar = pilot_region_ref(cfg, pcp, 0)
    assert np.max(np.abs(region - sbar)) < 1e-9


def test_extraction_pure_cfo_phase_ramp():
    cfg = paper_config(num_users=1)
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    eps = 0.31
    real = single_tap_realization(cfg, [0], cfos=[eps])
    y = transmit_pilot_only(cfg, pcp, real)
    region = region_of(y, 0, cfg)
    sbar = pilot_region_ref(cfg, pcp, 0)
    model = sync.cfo_phase(pilot.region_kappa(cfg, 0), eps, cfg.n_s) * sbar
    assert np.max(np.abs(region - model)) < 1e-9


def test_extraction_wrap_indices():
    cfg = paper_config(num_users=1)
    stream = np.arange(cfg.m * cfg.n, dtype=complex)
    for theta in (*range(cfg.theta_max + 1), 127):
        region = region_of(stream, theta, cfg)
        # last slot's tail wraps to the head of the stream
        idx = (np.arange(cfg.n)[:, None] * cfg.m + cfg.anchor + theta
               + np.arange(cfg.zc_len)) % (cfg.m * cfg.n)
        assert np.array_equal(pilot.region_index(cfg, theta), idx)
        assert np.array_equal(region.real.astype(int), idx)
        assert idx.max() < cfg.m * cfg.n
        assert (idx < cfg.anchor).any() == (theta > 0)


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("theta", [0, 1, 4, 127])
def test_regions_from_their_columns_are_the_whole_banks(theta, rows):
    # a front end's regions come from the region's L_p delay columns alone,
    # filtered by the user's filter; they are bit for bit the regions read
    # from the user's whole separated streams (``separate_user_one``), across
    # the wrap of the last slot's tail to the frame head (theta_hat =
    # theta_max = 4 at the default geometry, and 127, where every row of the
    # last slot wraps), for streams of K = 1 and 2 rows
    cfg = paper_config(num_users=4)
    assert cfg.theta_max == 4
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    rng = np.random.default_rng([46, theta, rows])
    shape = (2, rows, cfg.n_s)
    streams = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    front = sync.front_end(streams, [0, 1], [0.0, 0.0], pcp, cfg)
    index = pilot.region_index(cfg, theta)
    for user in range(cfg.num_users):
        samples, stream, amplitude = sync.pilot_regions(front, user, theta, [0, 1])
        assert samples.shape == (2, rows, cfg.n, cfg.zc_len)
        assert stream.tolist() == [0, 1] and amplitude.tolist() == [0.0, 0.0]
        for got, kept in zip(samples, front.rows):
            whole = np.stack([separate_user_one(row, user, cfg)[index] for row in kept])
            assert np.array_equal(got, sync.derotate(whole, cfg, user))


@pytest.mark.parametrize("theta", [0, 127])
def test_region_kappa_is_the_bundle_kappa(theta):
    # theta = 127 wraps every row of the last slot to the frame head
    cfg = paper_config(num_users=1)
    kappa = pilot.region_kappa(cfg, theta)
    assert np.array_equal(kappa, cfg.cp_len + pilot.region_index(cfg, theta))
    table = sync.estimator_bundle(cfg, theta)
    assert np.array_equal(table.bem, sync.build_bem_basis(cfg.beta, kappa, cfg.n_s))
    # sample (n, j) sits in virtual slot s at kappa = row_kappa[j] + s M, and
    # the slot's region index reads it back
    slot, rest = np.divmod(kappa - table.row_kappa, cfg.m)
    assert not rest.any() and slot.min() == 0
    col = np.broadcast_to(np.arange(cfg.zc_len), kappa.shape)
    flat = np.arange(kappa.size).reshape(kappa.shape)
    assert np.array_equal(table.scan_index[slot, col], flat)
    assert np.array_equal(kappa.ravel()[table.scan_index[slot, col]], kappa)
    # a virtual slot without a sample of row j has a zero basis there
    hole = np.ones(table.scan_index.shape, dtype=bool)
    hole[slot, col] = False
    assert not table.scan_basis[hole].any()


def test_wrong_offset_decorrelates_region():
    cfg = paper_config(num_users=1)
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    real = single_tap_realization(cfg, [2])
    y = transmit_pilot_only(cfg, pcp, real)
    sbar = pilot_region_ref(cfg, pcp, 0)

    def correlation(theta_hat):
        region = region_of(y, theta_hat, cfg)
        num = abs(np.vdot(sbar, region))
        return num / (np.linalg.norm(sbar) * np.linalg.norm(region))

    assert correlation(2) > 0.99
    assert correlation(3) < 0.6 * correlation(2)


# ---------------------------------------------------------------------------
# Chebyshev basis
# ---------------------------------------------------------------------------

def test_bem_recursion_matches_closed_form():
    cfg = paper_config(num_users=1)
    kappa = np.arange(cfg.n_s).reshape(1, -1)
    kprime = (2.0 * kappa - cfg.n_s + 1.0) / (cfg.n_s - 1.0)
    bem = sync.build_bem_basis(8, kappa, cfg.n_s)
    assert np.all(np.abs(kprime) <= 1.0 + 1e-12)
    closed = np.cos(np.arange(8)[np.newaxis, np.newaxis, :]
                    * np.arccos(np.clip(kprime, -1, 1))[..., np.newaxis])
    assert np.max(np.abs(bem - closed)) < 1e-10
    # beta = 1: only T_0 exists
    static = sync.build_bem_basis(1, kappa, cfg.n_s)
    assert static.shape == kappa.shape + (1,)
    assert np.array_equal(static, chebvander(kprime, 0))
    assert np.all(static == 1.0)


def test_chebyshev_vander_matches_numpy_bit_for_bit():
    # on a region's normalized instants at every basis order, and at high
    # degrees on the CFO grid
    cfg = paper_config(num_users=1)
    for theta in (0, 2):
        kappa = pilot.region_kappa(cfg, theta)
        kprime = (2.0 * kappa - cfg.n_s + 1.0) / (cfg.n_s - 1.0)
        for beta in range(1, BEM_ORDER_CAP + 1):
            assert np.array_equal(sync.chebyshev_vander(kprime, beta - 1),
                                  chebvander(kprime, beta - 1))
            assert np.array_equal(sync.build_bem_basis(beta, kappa, cfg.n_s),
                                  chebvander(kprime, beta - 1))
    x = sync.cfo_grid(cfg.cfo_range, cfg.cfo_step) / cfg.cfo_range
    for degree in (56, 58):
        assert np.array_equal(sync.chebyshev_vander(x, degree), chebvander(x, degree))


def test_bem_requires_positive_order():
    with pytest.raises(ConfigError):
        sync.build_bem_basis(0, np.zeros((1, 1)), 100)


# ---------------------------------------------------------------------------
# BEM regressor
# ---------------------------------------------------------------------------

def region_fixture(cfg, theta=0):
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    kappa = cfg.cp_len + pilot.region_index(cfg, theta)
    return pcp, bundle_template(cfg, pcp), kappa


def test_regressor_reproduces_convolution_oracle():
    # G c must equal the per-slot circular convolution Omega sbar for taps
    # synthesized exactly from the basis
    cfg = paper_config(num_users=1, nu_max_t=1.3, bem_order=4)
    _, sbar, kappa = region_fixture(cfg)
    bem = sync.build_bem_basis(cfg.beta, kappa, cfg.n_s)
    g = regressor_matrix(sbar, bem)
    rng = np.random.default_rng(20)
    lp, beta = cfg.zc_len, cfg.beta
    c = rng.standard_normal(lp * beta) + 1j * rng.standard_normal(lp * beta)
    got = (g @ c).reshape(cfg.n, lp)
    taps = c.reshape(lp, beta)
    oracle = np.zeros((cfg.n, lp), dtype=complex)
    for n in range(cfg.n):
        for j in range(lp):
            for ell in range(lp):
                h = np.sum(bem[n, j, :] * taps[ell])
                oracle[n, j] += h * sbar[n, (j - ell) % lp]
    assert np.max(np.abs(got - oracle)) < 1e-9


def test_static_channel_ls_recovery():
    # beta = 1: LS recovery of static taps through the shifted-pilot dictionary
    cfg = paper_config(num_users=1, nu_max_t=0.0, bem_order=1)
    pcp, sbar, kappa = region_fixture(cfg)
    reg = sync.build_bem_regressor(pilot.region_pilot(cfg, pcp), kappa, 1, cfg.m, cfg.n_s)
    rng = np.random.default_rng(21)
    taps = rng.standard_normal(cfg.zc_len) + 1j * rng.standard_normal(cfg.zc_len)
    rx = np.zeros((cfg.n, cfg.zc_len), dtype=complex)
    for ell, h in enumerate(taps):
        rx += h * np.roll(sbar, ell, axis=1)
    recovered = reg.coeffs(rx.ravel())
    assert np.max(np.abs(recovered - taps)) < 1e-8


def test_zero_pilot_raises_rank_error():
    cfg = paper_config(num_users=1)
    _, _, kappa = region_fixture(cfg)
    with pytest.raises(EstimationError, match="rank"):
        sync.build_bem_regressor(np.zeros(cfg.zc_len, complex), kappa, cfg.beta, cfg.m,
                                 cfg.n_s)


def test_underdetermined_regressor_raises():
    cfg = paper_config(num_users=1)
    pcp, _, kappa = region_fixture(cfg)
    with pytest.raises(EstimationError, match="underdetermined"):
        sync.build_bem_regressor(pilot.region_pilot(cfg, pcp), kappa, cfg.n + 1, cfg.m,
                                 cfg.n_s)


def test_pilot_circulant_and_row_bases_are_well_conditioned():
    # the premise of the row-wise fit: C[j, l] = p[(j - l) mod L_p] has
    # condition number 1 for every Zadoff-Chu row, and the Chebyshev matrices
    # B_j of the rows stay well conditioned up to the largest default order
    for zc_len in range(1, 17):
        for root in range(1, zc_len + 1):
            if math.gcd(root, zc_len) != 1:
                continue
            p = pilot.region_pilot(SystemConfig(m=2 * zc_len, n=4, num_users=1, zc_len=zc_len,
                                                pilot_anchor=zc_len, pilot_offset=0),
                                   pilot.make_pcp(zc_len, root, 40.0))
            j = np.arange(zc_len)
            circulant = p[(j[:, None] - j[None, :]) % zc_len]
            assert np.linalg.cond(circulant) <= 1.0 + 1e-12, (zc_len, root)
    # every timing offset of the default geometry at beta = 12: cond(B_j) peaks
    # at 21.7 (4.8 at the default beta = 7)
    cfg = paper_config(num_users=1)
    worst = 0.0
    for theta in range(cfg.m):
        _, _, kappa = region_fixture(cfg, theta)
        bem = sync.build_bem_basis(12, kappa, cfg.n_s)
        worst = max(worst, np.linalg.cond(bem.transpose(1, 0, 2)).max())
    assert worst < 25.0


# ---------------------------------------------------------------------------
# CFO cost and search
# ---------------------------------------------------------------------------

def bem_exact_observation(cfg, rng, eps0, theta=0, beta=None, noise=0.0):
    """Region samples synthesized from the estimator's own model on user 0's
    modulated-frame template, plus complex Gaussian noise of ``noise`` times
    their RMS per part, then de-rotated by user 0's slot phase; with the
    estimator bundle, the regressor matrix G of the de-rotated template and
    the coefficients."""
    beta = cfg.beta if beta is None else beta
    pcp, sbar, kappa = region_fixture(cfg, theta)
    bundle = sync.estimator_bundle(cfg, theta, beta)
    g_user0 = regressor_matrix(pilot_region_ref(cfg, pcp, 0), bundle.bem)
    c = rng.standard_normal(cfg.zc_len * beta) + 1j * rng.standard_normal(cfg.zc_len * beta)
    rbar = sync.cfo_phase(kappa.ravel(), eps0, cfg.n_s) * (g_user0 @ c)
    samples = rbar.reshape(cfg.n, cfg.zc_len)
    if noise:
        scale = np.sqrt(np.mean(np.abs(samples) ** 2))
        draw = rng.standard_normal(samples.shape) + 1j * rng.standard_normal(samples.shape)
        samples = samples + noise * scale * draw
    return sync.derotate(samples, cfg, 0), bundle, regressor_matrix(sbar, bundle.bem), c


def search(region, bundle, cfg):
    """``sync.estimate_cfo`` of one region, in the frame of the bundle's
    template, on a fresh projection, at one lane."""
    return sync.estimate_cfo(region[np.newaxis, np.newaxis], bundle, cfg, [0.0], [0])[0]


def test_cost_matches_projection_matrix_oracle():
    cfg = paper_config(num_users=1, nu_max_t=1.0, bem_order=3)
    rng = np.random.default_rng(22)
    region, bundle, g, _ = bem_exact_observation(cfg, rng, 0.2)
    kflat = pilot.region_kappa(cfg, 0).ravel()
    proj = g @ np.linalg.inv(g.conj().T @ g) @ g.conj().T
    for eps in (-0.3, 0.0, 0.21):
        phase = sync.cfo_phase(kflat, eps, cfg.n_s)
        z = np.conj(phase) * region.ravel()
        oracle = np.real(np.vdot(z, proj @ z))
        got = sync.cfo_cost(region.ravel(), bundle, kflat, eps, cfg.n_s)
        assert abs(got - oracle) < 1e-10 * max(1.0, oracle)


def test_cost_nonnegative_and_phase_invariant():
    cfg = paper_config(num_users=1, nu_max_t=1.0, bem_order=3)
    rng = np.random.default_rng(23)
    region, bundle, _, _ = bem_exact_observation(cfg, rng, 0.1)
    rflat = region.ravel()
    kflat = pilot.region_kappa(cfg, 0).ravel()
    base = sync.cfo_cost(rflat, bundle, kflat, 0.07, cfg.n_s)
    assert base >= 0
    rotated = sync.cfo_cost(np.exp(1j * 0.8) * rflat, bundle, kflat, 0.07, cfg.n_s)
    assert abs(base - rotated) < 1e-9 * base


def test_cost_peak_captures_full_energy_at_truth():
    cfg = paper_config(num_users=1, nu_max_t=1.0, bem_order=3)
    rng = np.random.default_rng(24)
    region, bundle, g, c = bem_exact_observation(cfg, rng, 0.14)
    peak = sync.cfo_cost(region.ravel(), bundle, pilot.region_kappa(cfg, 0).ravel(), 0.14,
                         cfg.n_s)
    assert peak == pytest.approx(np.linalg.norm(g @ c) ** 2, rel=1e-10)


def test_golden_section_on_parabola():
    x, fx = sync.golden_section_max(lambda t: -(t - 0.3) ** 2, -1.0, 1.0, 1e-6)
    assert abs(x - 0.3) < 1e-5
    assert fx == pytest.approx(0.0, abs=1e-9)


def test_estimate_cfo_on_grid_exact():
    cfg = paper_config(num_users=1, nu_max_t=1.0, bem_order=3)
    rng = np.random.default_rng(25)
    grid = sync.cfo_grid(cfg.cfo_range, cfg.cfo_step)
    eps0 = float(grid[np.argmin(np.abs(grid - 0.2))])  # exactly on the grid
    region, bundle, _, _ = bem_exact_observation(cfg, rng, eps0)
    est = search(region, bundle, cfg)
    assert est.epsilon_hat == eps0


def test_estimate_cfo_off_grid_within_tolerance():
    cfg = paper_config(num_users=1, nu_max_t=1.0, bem_order=3)
    rng = np.random.default_rng(26)
    for eps0 in rng.uniform(-0.45, 0.45, 6):
        region, bundle, _, _ = bem_exact_observation(cfg, rng, eps0)
        est = search(region, bundle, cfg)
        assert abs(est.epsilon_hat - eps0) <= cfg.cfo_tol


def test_estimate_cfo_cost_curve_maximum_at_estimate():
    cfg = paper_config(num_users=1, nu_max_t=1.0, bem_order=3)
    rng = np.random.default_rng(27)
    region, bundle, _, _ = bem_exact_observation(cfg, rng, 0.33)
    est = search(region, bundle, cfg)
    final = sync.cfo_cost(region.ravel(), bundle, pilot.region_kappa(cfg, 0).ravel(),
                          est.epsilon_hat, cfg.n_s)
    assert final >= est.cost_curve.max() - 1e-9 * final
    assert abs(est.epsilon_hat) <= cfg.cfo_range


def fine_argmax(region, kappa, regressor, lo, hi, n_s, step=1e-6, chunk=4000):
    """Argmax of the projection cost over a step-spaced grid of [lo, hi]."""
    eps = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
    rflat, kflat = region.ravel(), kappa.ravel().astype(float)
    costs = np.concatenate([
        regressor.cost_many(np.exp(-2j * np.pi * np.outer(part, kflat) / n_s) * rflat)[0]
        for part in np.array_split(eps, -(-eps.size // chunk))])
    return eps[int(np.argmax(costs))]


@pytest.mark.parametrize("eps0, cfo_range", [(0.137, 2.0), (1.013, 1.0)])
def test_estimate_cfo_matches_fine_argmax_of_bracket(eps0, cfo_range):
    # noise moves the maximum off eps0; eps0 = 1.013 puts it past +cfo_range,
    # so the bracket is clipped and the maximum sits on its edge
    cfg = paper_config(num_users=1, nu_max_t=1.0, bem_order=3, cfo_range=cfo_range)
    rng = np.random.default_rng(32)
    region, bundle, _, _ = bem_exact_observation(cfg, rng, eps0, noise=0.3)
    est = search(region, bundle, cfg)
    centre = est.grid[int(np.argmax(est.cost_curve))]
    lo = max(centre - cfg.cfo_step, -cfg.cfo_range)
    hi = min(centre + cfg.cfo_step, cfg.cfo_range)
    pcp, _, kappa = region_fixture(cfg)
    target = fine_argmax(region, kappa, dense_regressor(bundle, cfg, pcp), lo, hi, cfg.n_s)
    if eps0 > cfo_range:
        assert target == hi == cfg.cfo_range
    else:
        assert lo + cfg.cfo_tol < target < hi - cfg.cfo_tol
    assert abs(est.epsilon_hat - target) <= cfg.cfo_tol / 2


def test_cost_derivatives_match_central_differences():
    cfg = paper_config(num_users=1, nu_max_t=1.0, bem_order=3)
    rng = np.random.default_rng(33)
    region, bundle, _, _ = bem_exact_observation(cfg, rng, 0.1)
    _, sbar, kappa = region_fixture(cfg)
    rflat, kflat = region.ravel(), kappa.ravel()
    cost = lambda e: sync.cfo_cost(rflat, bundle, kflat, e, cfg.n_s)
    dense = DenseRegressor(sbar, bundle.bem)
    h = 1e-4
    for eps in (-0.31, 0.02, 0.45):
        g, g1, g2 = cfo_cost_derivatives(rflat, dense, kflat, eps, cfg.n_s)
        assert g == pytest.approx(cost(eps), rel=1e-12)
        assert g1 == pytest.approx((cost(eps + h) - cost(eps - h)) / (2 * h), rel=1e-6)
        assert g2 == pytest.approx(
            (cost(eps + h) - 2 * cost(eps) + cost(eps - h)) / h ** 2, rel=1e-6)


def test_estimate_cfo_all_zero_region_returns_grid_point():
    cfg = paper_config(num_users=1, nu_max_t=1.0, bem_order=3)
    region, bundle, _, _ = bem_exact_observation(cfg, np.random.default_rng(34), 0.0)
    zero = np.zeros_like(region)
    est = search(zero, bundle, cfg)
    assert est.epsilon_hat == est.grid[int(np.argmax(est.cost_curve))]
    assert np.all(est.c_hat == 0)


def lanes_of(*funs):
    """One vectorized function of ``sync.newton_max_many`` from scalar ones,
    one per lane: fun(x, lanes) -> (f, f', f'') arrays."""
    def fun(x, lanes):
        return np.array([funs[lane](float(t)) for t, lane in zip(x, lanes)], dtype=float).T
    return fun


# f = -(t - 0.3)^4 has f'' = 0 at its maximum: Newton slows, the bracket holds
QUARTIC = lambda t: (-(t - 0.3) ** 4, -4 * (t - 0.3) ** 3, -12 * (t - 0.3) ** 2)
# increasing f on the whole bracket: a concave f steps onto the upper edge
# and stops there, a linear one (f'' = 0) bisects towards it
PARABOLA = lambda t: (-(t - 0.5) ** 2, -2 * (t - 0.5), -2.0)
LINEAR = lambda t: (t, 1.0, 0.0)
FLAT = lambda t: (1.0, 0.0, -1.0)       # f' = 0 stops at the start


def test_newton_max_on_quartic_and_at_bracket_edge():
    x, _ = newton_max(QUARTIC, 0.25, 0.2, 0.4, 1e-4)
    assert abs(x - 0.3) < 1e-4
    assert newton_max(PARABOLA, 0.1, 0.0, 0.2, 1e-4)[0] == 0.2
    x, fx = newton_max(LINEAR, 0.1, 0.0, 0.2, 1e-4)
    assert 0.2 - 2e-6 <= x <= 0.2 and fx == x  # bisection stops at a step below 1e-6


def test_newton_max_many_takes_each_lanes_own_steps():
    # the lanes of one call stop at different iterations, each where the
    # scalar ascent of that lane alone stops, bit for bit
    cases = [(QUARTIC, 0.25, 0.2, 0.4), (PARABOLA, 0.1, 0.0, 0.2), (LINEAR, 0.1, 0.0, 0.2),
             (FLAT, 0.05, 0.0, 0.2), (QUARTIC, 0.39, 0.2, 0.4)]
    funs, x0, lo, hi = zip(*cases)
    x, f = sync.newton_max_many(lanes_of(*funs), np.array(x0), np.array(lo), np.array(hi),
                                1e-4)
    for (fun, *start), got_x, got_f in zip(cases, x, f):
        assert (got_x, got_f) == newton_max(fun, *start, 1e-4)
    # a lane alone gives what it gives among the others
    for lane, (fun, *start) in enumerate(cases):
        alone = sync.newton_max_many(lanes_of(fun), *map(np.array, ([s] for s in start)), 1e-4)
        assert (alone[0][0], alone[1][0]) == (x[lane], f[lane])


@pytest.mark.parametrize("theta", [0, 3])
def test_newton_refinement_of_a_search_matches_the_scalar_ascent_lane_by_lane(theta):
    # the lanes of one real search: several streams, each read at a few noise
    # amplitudes, refined at once; the scalar ascent of each lane on the same
    # cost derivatives (the lag form) from the same bracket ends where the
    # search's refinement of it ends
    cfg = paper_config(num_users=2, snr_db=10.0)
    bundle = sync.estimator_bundle(cfg, theta)
    rng = np.random.default_rng([theta, 3])
    shape = (4, 2, cfg.n, cfg.zc_len)
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    samples[:, 0] *= 10.0
    stream = np.array([0, 0, 1, 2, 2, 2, 3])
    amplitudes = np.array([0.0, 0.3, 1.0, 0.0, 0.1, 3.0, 0.7])
    estimates = sync.estimate_cfo(samples, bundle, cfg, amplitudes, stream)
    grid, turns, lag_derivs, _ = sync.lag_tables(len(bundle.scan_index), cfg.m, cfg.n_s,
                                                 cfg.cfo_range, cfg.cfo_step)
    lags = bundle.cost_many(bundle.slot_rows(samples)).view(np.float64)
    moved = 0
    for s, a, est in zip(stream, amplitudes, estimates):
        lane = ((a ** np.arange(3))[np.newaxis] @ lags[s]).view(np.complex128)
        derivs = (lane * lag_derivs).view(np.float64)
        fun = lambda e: tuple((derivs @ sync.lag_phasors(e, turns)).tolist())
        best = int(np.argmax(est.cost_curve))
        eps_c = float(grid[best])
        lo, hi = max(eps_c - cfg.cfo_step, -cfg.cfo_range), min(eps_c + cfg.cfo_step,
                                                                 cfg.cfo_range)
        x, f = newton_max(fun, eps_c, lo, hi, cfg.cfo_tol)
        assert est.epsilon_hat == (eps_c if est.cost_curve[best] >= f else x)
        moved += est.epsilon_hat != eps_c
    assert moved > 0


@pytest.mark.parametrize("cfo_range, cfo_step, size, whole", [
    (2.0, 0.02, 201, True), (0.6, 0.02, 61, True),
    (1.0, 0.3, 7, False), (0.5, 0.3, 3, False),
])
def test_cfo_grid_symmetric_multiples_within_range(cfo_range, cfo_step, size, whole):
    grid = sync.cfo_grid(cfo_range, cfo_step)
    assert grid.size == size
    assert grid[size // 2] == 0.0
    assert np.array_equal(grid, -grid[::-1])
    assert np.max(np.abs(grid)) <= cfo_range
    if whole:
        assert grid[0] == -cfo_range and grid[-1] == cfo_range
    assert np.allclose(np.diff(grid), cfo_step, rtol=1e-12, atol=0.0)


def test_estimate_cfo_stays_within_range_off_step_multiple():
    # cfo_range = 1.0 is not a whole number of 0.3 steps
    cfg = paper_config(num_users=1, nu_max_t=1.0, bem_order=3, cfo_range=1.0,
                       cfo_step=0.3)
    for eps0 in (0.98, -0.97, 1.05):
        rng = np.random.default_rng(31)
        region, bundle, _, _ = bem_exact_observation(cfg, rng, eps0)
        est = search(region, bundle, cfg)
        assert abs(est.epsilon_hat) <= 1.0
        if abs(eps0) <= 1.0:
            assert abs(est.epsilon_hat - eps0) <= cfg.cfo_tol


def test_ls_residual_orthogonality():
    cfg = paper_config(num_users=2, nu_max_t=2.91, channel_model="eva-bem",
                       snr_db=20.0)
    from otfsync import harness
    rng = np.random.default_rng([cfg.rng_seed, 0])
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    real = chan.draw_realization(rng, cfg)
    frames = pilot.embed_pilots(
        [np.zeros((cfg.m, cfg.n), complex) for _ in range(2)], cfg, pcp)
    streams = [modem.transmit(f, cfg.cp_len) for f in frames]
    r = chan.apply_channel(streams, real, cfg.n_s, cfg.theta_max)
    received = chan.add_awgn(r, cfg.snr_db, chan.unit_noise(rng, r.shape))
    front = sync.front_end(received[np.newaxis, np.newaxis], [0], [0.0], pcp, cfg)
    theta = int(front.to_estimate.first_peak[0, 0])
    (estimate,) = sync.synchronize_user(sync.pilot_regions(front, 0, theta, [0]), theta, cfg)
    region = separate_user_one(front.rows[0, 0], 0, cfg)[pilot.region_index(cfg, theta)]
    bundle = sync.estimator_bundle(cfg, theta)
    g = regressor_matrix(pilot_region_ref(cfg, pcp, 0), bundle.bem)
    phase = sync.cfo_phase(pilot.region_kappa(cfg, theta).ravel(), estimate.epsilon_hat,
                           cfg.n_s)
    z = np.conj(phase) * region.ravel()
    residual = g.conj().T @ (z - g @ estimate.c_hat)
    assert np.linalg.norm(residual) < 1e-9 * np.linalg.norm(g.conj().T @ z)


def test_configs_that_differ_in_the_grid_share_one_table():
    # the table does not read the CFO grid, so configs that differ only in
    # cfo_step share it, and each search scans the grid of its own config
    cfg = paper_config(num_users=1, nu_max_t=1.0, bem_order=3)
    coarse_cfg = paper_config(num_users=1, nu_max_t=1.0, bem_order=3, cfo_step=0.1)
    _, _, kappa = region_fixture(cfg, theta=2)
    table = sync.estimator_bundle(cfg, 2)
    assert sync.estimator_bundle(coarse_cfg, 2) is table
    rng = np.random.default_rng(49)
    region = rng.standard_normal(kappa.shape) + 1j * rng.standard_normal(kappa.shape)
    fine, coarse = (search(region, table, c) for c in (cfg, coarse_cfg))
    for est, c, size in ((fine, cfg, 201), (coarse, coarse_cfg, 41)):
        assert np.array_equal(est.grid, sync.cfo_grid(c.cfo_range, c.cfo_step))
        assert est.grid.size == est.cost_curve.size == size
    # every fifth fine point is a coarse point, at the same cost to rounding
    assert np.allclose(fine.grid[::5], coarse.grid, rtol=0, atol=1e-15)
    assert np.max(np.abs(fine.cost_curve[::5] - coarse.cost_curve)) <= (
        1e-12 * np.max(coarse.cost_curve))
    grid, turns, _, phasors = sync.lag_tables(len(table.scan_index), cfg.m, cfg.n_s,
                                              cfg.cfo_range, cfg.cfo_step)
    assert np.array_equal(phasors, sync.lag_phasors(grid[:, np.newaxis], turns).T)
    # theta = 2 wraps the tail of the last slot to the frame head, virtual slot -1
    slot = (kappa - kappa[0]) // cfg.m + 1
    assert np.array_equal(table.row_kappa, kappa[0] - cfg.m)
    # the row phase times the slot phase is the rotation of every sample
    kflat = kappa.ravel().astype(float)
    for eps in (-0.37, 0.8):
        phases = np.exp(-2j * np.pi * eps * kflat / cfg.n_s)
        slot_phase = np.exp(-eps * turns)
        row_phase = np.exp(-2j * np.pi * eps * table.row_kappa / cfg.n_s)
        factored = (slot_phase[slot] * row_phase).ravel()
        assert np.max(np.abs(factored - phases)) <= 1e-13


@pytest.mark.parametrize("theta, overrides", [
    (0, {}),                                    # kappa 131..4108
    (3, {}),                                    # wrapped region, kappa 13..4108
    (0, {"cfo_range": 0.5}),
    (0, {"cfo_range": 4.0, "cfo_step": 0.05}),
    (0, {"cfo_range": 1.0, "cfo_step": 0.3}),   # G = 7 grid points, fewer than the V lags
])
def test_lag_scan_matches_dense_scan(theta, overrides):
    # one region (K = 1) and signal + a noise (K = 2) at a = 0.3, against
    # the dense cost of the region at every grid point
    cfg = paper_config(num_users=1, **overrides)
    pcp, _, kappa = region_fixture(cfg, theta)
    bundle = sync.estimator_bundle(cfg, theta)
    kflat = kappa.ravel()
    grid = sync.cfo_grid(cfg.cfo_range, cfg.cfo_step)
    dense_phases = np.exp(-2j * np.pi * np.outer(grid, kflat) / cfg.n_s)
    dense = dense_regressor(bundle, cfg, pcp)
    rng = np.random.default_rng(41)
    for _ in range(5):
        rows = rng.standard_normal((2, kflat.size)) + 1j * rng.standard_normal((2, kflat.size))
        for region, amplitude in ((rows[:1], 0.0), (rows, 0.3)):
            (est,) = sync.estimate_cfo(region.reshape((1, -1) + kappa.shape), bundle, cfg,
                                       (amplitude,), [0])
            want = dense.cost_many(dense_phases * sync.at_amplitude(region, amplitude))[0]
            assert np.max(np.abs(est.cost_curve - want)) <= 1e-13 * np.max(want)


@pytest.mark.parametrize("theta", [0, 3, 10])
def test_cost_derivatives_of_the_lag_form_match_central_differences(theta):
    # g, g' and g'' of the Newton refinement at off-grid eps against
    # sync.cfo_cost; theta = 3 and 10 wrap the region
    cfg = paper_config(num_users=4 if theta == 10 else 1, nu_max_t=1.0, bem_order=3)
    region, bundle, _, _ = bem_exact_observation(cfg, np.random.default_rng(theta), 0.1,
                                                 theta, noise=0.3)
    rflat, kflat = region.ravel(), pilot.region_kappa(cfg, theta).ravel()
    _, turns, lag_derivs, _ = sync.lag_tables(len(bundle.scan_index), cfg.m, cfg.n_s,
                                              cfg.cfo_range, cfg.cfo_step)
    lags = bundle.cost_many(bundle.slot_rows(region[np.newaxis]))[0]
    derivs = (lags * lag_derivs).view(np.float64)
    cost = lambda e: sync.cfo_cost(rflat, bundle, kflat, e, cfg.n_s)
    h = 1e-4
    for eps in (-0.913, -0.31, 0.0217, 0.455):
        g, g1, g2 = derivs @ sync.lag_phasors(eps, turns)
        assert g == pytest.approx(cost(eps), rel=1e-12)
        assert g1 == pytest.approx((cost(eps + h) - cost(eps - h)) / (2 * h), rel=1e-6)
        assert g2 == pytest.approx(
            (cost(eps + h) - 2 * cost(eps) + cost(eps - h)) / h ** 2, rel=1e-6)


def test_estimator_bundle_is_shared_across_user_counts():
    # the bundle fits the Doppler-free template 1 (x) p, which neither the
    # user count nor the pilot Doppler offset changes
    bundles = []
    for num_users, offset in ((2, -1), (4, -1), (4, 1)):
        cfg = paper_config(num_users=num_users, pilot_offset=offset)
        bundles.append(sync.estimator_bundle(cfg, 2))
    assert bundles[1] is bundles[0] and bundles[2] is bundles[0]


@pytest.mark.parametrize("theta, overrides, eps0s", [
    (0, {}, (0.137, -0.341, 0.02)),
    (3, {}, (0.137, -0.341, 0.02)),                     # wrapped region
    (0, {"cfo_range": 0.5}, (0.137, -0.452, 0.499)),
    (0, {"cfo_range": 1.0, "cfo_step": 0.3}, (0.137, -0.83, 0.98)),   # G = 7
    (0, {"cfo_range": 1.0}, (1.013,)),                  # bracket clipped at +cfo_range
    (1, {"bem_order": 1, "nu_max_t": 0.0}, (0.137, -0.341)),   # one wrapped row
    (9, {"num_users": 2}, (0.137, -0.341)),
    (10, {"num_users": 4, "bem_order": 12}, (0.137, -0.341)),   # every row wrapped
    (127, {"num_users": 7}, (0.137, -0.341)),
    (0, {"num_users": 4, "bem_order": 12}, (0.137, -0.341)),
    (3, {"cfo_range": 0.5}, (0.62, -0.57)),             # clipped at either end
])
def test_local_refinement_matches_exact_newton(theta, overrides, eps0s):
    # the oracle: Newton on the exact cost derivatives with the dense Q, then
    # the coeffs solve
    cfg = paper_config(**{"num_users": 1, **overrides})
    pcp, _, _ = region_fixture(cfg, theta)
    rng = np.random.default_rng(44)
    for eps0 in eps0s:
        # past the range the region is noise-free: the cost peaks at eps0
        # itself, so the search clips at the nearer end of the range under
        # any draw of the coefficients
        noise = 0.0 if abs(eps0) > cfg.cfo_range else 0.3
        region, bundle, _, _ = bem_exact_observation(cfg, rng, eps0, theta, noise=noise)
        est = search(region, bundle, cfg)
        eps_hat, c_hat = estimate_cfo_exact(region, pilot.region_kappa(cfg, theta),
                                            dense_regressor(bundle, cfg, pcp),
                                            cfg, est.cost_curve)
        assert abs(est.epsilon_hat - eps_hat) <= 1e-9 * abs(eps_hat)
        assert np.linalg.norm(est.c_hat - c_hat) <= 1e-9 * np.linalg.norm(c_hat)
        taps = np.einsum("njg,lg->nlj", bundle.bem, c_hat.reshape(cfg.zc_len, -1))
        h_hat = sync.reconstruct_channel(est.c_hat, bundle.bem)
        assert np.max(np.abs(h_hat - taps)) <= 1e-9 * np.max(np.abs(taps))
        if abs(eps0) > cfg.cfo_range:
            edge = math.copysign(cfg.cfo_range, eps0)
            assert abs(est.grid[int(np.argmax(est.cost_curve))] - edge) < cfg.cfo_step
            assert est.epsilon_hat == edge


def test_shared_bundle_matches_per_user_bundles():
    # Q = 4 users at distinct timing offsets and CFOs, with data and noise:
    # one bundle, shared through each user's de-rotation, against a regressor
    # on each user's own template
    from otfsync import harness
    cfg = paper_config(num_users=4, nu_max_t=1.0, snr_db=20.0)
    rng = np.random.default_rng([cfg.rng_seed, 5])
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    real = chan.draw_realization(rng, cfg)
    real.to[:] = [3, 0, 4, 1]
    real.cfo[:] = [0.137, -0.341, 0.402, -0.06]
    frames = pilot.embed_pilots(
        [modem.build_data_frame(rng, cfg.m, cfg.n, sync.doppler_mask(cfg, q),
                                pilot.guard_rows(cfg)) for q in range(cfg.num_users)],
        cfg, pcp)
    rx = chan.apply_channel(modem.transmit(frames, cfg.cp_len), real, cfg.n_s, cfg.theta_max)
    received = chan.add_awgn(rx, cfg.snr_db, chan.unit_noise(rng, rx.shape))
    front = sync.front_end(received[np.newaxis, np.newaxis], [0], [0.0], pcp, cfg)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    for q in range(cfg.num_users):
        theta = int(real.to[q])
        regions = sync.pilot_regions(front, q, theta, [0])
        (estimate,) = sync.synchronize_user(regions, theta, cfg)
        beta_abs = harness.absorbed_beta(cfg)
        (c_abs,) = harness.absorbed_channel_fit(regions, cfg, theta, beta_abs)
        eps_hat, c_hat, h_hat, h_abs_own = own_bundle_back_end(
            front.rows[0, 0], q, theta, cfg, pcp, beta_abs)
        assert abs(estimate.epsilon_hat - eps_hat) <= 1e-9 * abs(eps_hat)
        assert close(estimate.c_hat, c_hat)
        bem = sync.estimator_bundle(cfg, theta).bem
        assert close(sync.reconstruct_channel(estimate.c_hat, bem), h_hat)
        bem_abs = sync.estimator_bundle(cfg, theta, beta_abs).bem
        assert close(sync.reconstruct_channel(c_abs, bem_abs), h_abs_own)


def test_estimate_cfo_allocates_less_than_the_dense_scan():
    cfg = paper_config(num_users=1)
    _, _, kappa = region_fixture(cfg, 2)
    bundle = sync.estimator_bundle(cfg, 2)
    rng = np.random.default_rng(42)
    samples = rng.standard_normal(kappa.shape) + 1j * rng.standard_normal(kappa.shape)
    search(samples, bundle, cfg)    # warm: lazy imports, BLAS buffers
    tracemalloc.start()
    try:
        search(samples, bundle, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense (G, N*L_p) rotated region alone would take this much
    assert peak < sync.cfo_grid(cfg.cfo_range, cfg.cfo_step).size * kappa.size * 16


def test_timing_correlate_correlates_each_row_alone():
    cfg = paper_config(num_users=4)
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    rng = np.random.default_rng(44)
    shape = (2, 3, cfg.m * cfg.n)
    stream = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sync.timing_correlate(stream, pcp, cfg)      # warm: the cached weights
    tracemalloc.start()
    try:
        corr = sync.timing_correlate(stream, pcp, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the weighted spectra and the output at most, 3.1 MB here, and the rows'
    # spectra
    assert corr.shape == (2, 3, cfg.num_users, cfg.m * cfg.n)
    assert peak < stream.nbytes + 2 * corr.nbytes
    # each row of the stack comes out as that row correlated alone
    for index in np.ndindex(shape[:-1]):
        assert np.array_equal(corr[index], sync.timing_correlate(stream[index], pcp, cfg))


def test_reconstruct_channel_shapes_and_zero():
    cfg = paper_config(num_users=1, nu_max_t=1.0, bem_order=3)
    _, _, kappa = region_fixture(cfg)
    bem = sync.build_bem_basis(3, kappa, cfg.n_s)
    h = sync.reconstruct_channel(np.zeros(cfg.zc_len * 3), bem)
    assert h.shape == (cfg.n, cfg.zc_len, cfg.zc_len)
    assert np.all(h == 0)


def test_reconstruct_bem_exact_channel():
    cfg = paper_config(num_users=1, nu_max_t=1.0, bem_order=3)
    rng = np.random.default_rng(29)
    region, bundle, _, c = bem_exact_observation(cfg, rng, 0.0)
    c_hat = bundle.coeffs(region.ravel())
    h_hat = sync.reconstruct_channel(c_hat, bundle.bem)
    h_true = sync.reconstruct_channel(c, bundle.bem)
    assert np.max(np.abs(h_hat - h_true)) < 1e-8


# ---------------------------------------------------------------------------
# slot-structured projection against the dense-Q oracle
# ---------------------------------------------------------------------------

# theta = 1 and 9 wrap the tail of the last slot to the frame head, 10 and 127
# every row of it (at anchor 118 of M = 128)
@pytest.mark.parametrize("num_users", [1, 2, 4, 7])
@pytest.mark.parametrize("theta", [0, 1, 9, 10, 127])
@pytest.mark.parametrize("beta", [1, 7, 12])
def test_slot_projection_and_cost_curve_match_dense_q(num_users, theta, beta):
    cfg = paper_config(num_users=num_users)
    pcp, sbar, kappa = region_fixture(cfg, theta)
    bundle = sync.estimator_bundle(cfg, theta, beta)
    dense = DenseRegressor(sbar, bundle.bem)
    rng = np.random.default_rng([theta, beta, num_users])
    z = rng.standard_normal((3, kappa.size)) + 1j * rng.standard_normal((3, kappa.size))
    # the two bases differ, the squared norm of each projection does not
    want = np.sum(np.abs(dense.project(z)) ** 2, axis=1)
    w = bundle.slot_rows(z.reshape((-1,) + kappa.shape)).sum(axis=-2)
    got = np.sum(np.abs(w) ** 2, axis=1)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
    # the LS solve, at every theta, the wrapped ones too
    assert np.allclose(bundle.coeffs(z[0]), dense.coeffs(z[0]), rtol=0, atol=1e-12 * np.max(
        np.abs(dense.coeffs(z[0]))))
    grid = sync.cfo_grid(cfg.cfo_range, cfg.cfo_step)
    rotations = np.exp(-2j * np.pi * np.outer(grid, kappa.ravel()) / cfg.n_s)
    got = search(z[1].reshape(kappa.shape), bundle, cfg).cost_curve
    dense_curve = dense.cost_many(rotations * z[1])[0]
    assert np.max(np.abs(got - dense_curve)) <= 1e-13 * np.max(dense_curve)


def test_cost_polynomial_is_quadratic_in_the_noise_amplitude():
    # a region signal + a * noise has slot rows Y = Y_s + a Y_n, whose lag
    # coefficients are rho_ss + a (rho_sn + rho_ns) + a^2 rho_nn; each row's
    # coefficients are made as they would be alone
    cfg = paper_config(num_users=2)
    bundle = sync.estimator_bundle(cfg, 2)
    rng = np.random.default_rng(46)
    shape = (2, cfg.n, cfg.zc_len)
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    samples[0] *= 30.0
    rows = bundle.slot_rows(samples)
    lags = bundle.cost_many(rows)
    lag_count = len(bundle.scan_index)
    assert lags.shape == (3, lag_count) and rows.shape == (2, lag_count, cfg.zc_len * cfg.beta)
    for amplitude in (0.0, 0.05, math.sqrt(0.5), 3.0):
        want = bundle.cost_many((rows[0] + amplitude * rows[1])[np.newaxis])[0]
        got = lags[0] + amplitude * lags[1] + amplitude ** 2 * lags[2]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    for k in range(2):
        alone = bundle.cost_many(bundle.slot_rows(samples[k:k + 1]))[0]
        assert np.max(np.abs(alone - lags[2 * k])) <= 1e-12 * np.max(np.abs(lags[2 * k]))
    # the coefficients are the slot-lag correlations of the rows
    y = rows[0] + 0.05 * rows[1]
    gram = y @ y.conj().T
    rho = [np.trace(gram, offset=-d) for d in range(lag_count)]
    want = np.array(rho) * np.where(np.arange(lag_count) > 0, 2.0, 1.0)
    got = lags[0] + 0.05 * lags[1] + 0.05 ** 2 * lags[2]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_lane_search_equals_one_search_per_amplitude():
    # one search over several noise amplitudes gives, lane by lane, what a
    # search at each amplitude alone gives
    cfg = paper_config(num_users=2)
    bundle = sync.estimator_bundle(cfg, 2)
    rng = np.random.default_rng(47)
    shape = (1, 2, cfg.n, cfg.zc_len)
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    samples[0, 0] *= 30.0
    amplitudes = (0.0, 0.05, math.sqrt(0.5), 3.0, 0.05)
    lanes = sync.estimate_cfo(samples, bundle, cfg, amplitudes, [0] * len(amplitudes))
    assert len(lanes) == len(amplitudes)
    assert len({est.epsilon_hat for est in lanes}) == 4     # the lanes differ
    for amplitude, lane in zip(amplitudes, lanes):
        (alone,) = sync.estimate_cfo(samples, bundle, cfg, (amplitude,), [0])
        assert lane.epsilon_hat == pytest.approx(alone.epsilon_hat, rel=1e-12, abs=1e-15)
        for name in ("cost_curve", "c_hat"):
            got, want = getattr(lane, name), getattr(alone, name)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_stacked_streams_search_as_each_stream_alone():
    # S stacked one-row streams (a pinned run's lanes) give, stream by stream,
    # the bits of each stream's search alone, and a stack of regions the
    # bits of each region's LS solve alone
    cfg = paper_config(num_users=2)
    bundle = sync.estimator_bundle(cfg, 2)
    rng = np.random.default_rng(48)
    shape = (5, 1, cfg.n, cfg.zc_len)
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    lanes = sync.estimate_cfo(samples, bundle, cfg, [0.0] * len(samples),
                              np.arange(len(samples)))
    assert len({est.epsilon_hat for est in lanes}) == len(samples)
    for region, lane in zip(samples, lanes):
        (alone,) = sync.estimate_cfo(region[np.newaxis], bundle, cfg, [0.0], [0])
        assert lane.epsilon_hat == alone.epsilon_hat
        for name in ("cost_curve", "c_hat"):
            assert np.array_equal(getattr(lane, name), getattr(alone, name))
    flat = samples.reshape(len(samples), -1)
    coeffs = bundle.coeffs(flat)
    assert coeffs.shape == (len(samples), cfg.zc_len * cfg.beta)
    for z, c in zip(flat, coeffs):
        assert np.array_equal(c, bundle.coeffs(z))


def test_timing_weights_are_built_once_and_read_only():
    # Q = 3 at N = 32: Doppler bins 30 and 31 are in no band
    cfg = paper_config(num_users=3)
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    weights = sync.timing_weights(pcp, cfg)
    assert sync.timing_weights(pcp.copy(), replace(cfg, snr_db=0.0)) is weights
    assert weights.shape == (3, cfg.m * cfg.n) and not weights.flags.writeable
    # row q: user q's band mask at f mod N times the conjugate DFT of the PCP
    # at delay rows delay_lo, ..., by the DFT's sum
    f = np.arange(cfg.m * cfg.n)
    rows = cfg.delay_lo + np.arange(pcp.size)
    spectrum = np.exp(-2j * np.pi * np.outer(f, rows) / (cfg.m * cfg.n)) @ pcp
    for user in range(cfg.num_users):
        want = np.where(sync.doppler_mask(cfg, user)[f % cfg.n], np.conj(spectrum), 0.0)
        assert np.max(np.abs(weights[user] - want)) <= 1e-12 * np.max(np.abs(want))
    assert not weights[:, f % cfg.n >= 30].any()
