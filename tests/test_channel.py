"""Channel generation and sample-level application, checked against the
dense delay-Doppler matrix oracle."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from dd_oracle import bin_mask, build_compound_channel, demodulate
from otfsync import channel as chan
from otfsync import modem, sync
from otfsync.config import SystemConfig
from otfsync.errors import RealizationError


def random_pathset(rng, n_paths=3, len_cap=10, nu_max_t=1.5, n_s=146):
    gains = (rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths))
    gains /= np.linalg.norm(gains)
    delays = np.sort(rng.choice(len_cap, size=n_paths, replace=False))
    dopplers = rng.uniform(-1, 1, n_paths) * nu_max_t / n_s
    return chan.PathSet(gains=gains, delays=delays, dopplers=dopplers)


def small_config(**kw):
    base = dict(m=16, n=8, num_users=2, cp_len=12, theta_max=3, zc_len=5,
                channel_len_cap=10, nu_max_t=1.3, cfo_range=0.6, bem_order=5)
    base.update(kw)
    return SystemConfig(**base).validate()


# -- EVA profile -------------------------------------------------------------

def test_eva_quantization_oracle():
    # round(tau * 3.84e6) = {0,0,1,1,1,3,4,7,10}, merged, clamped into length 10
    delays, powers = chan.eva_profile()
    assert delays.tolist() == [0, 1, 3, 4, 7, 9]
    lin = 10.0 ** (chan.EVA_POWERS_DB / 10.0)
    merged = {0: lin[0] + lin[1], 1: lin[2] + lin[3] + lin[4], 3: lin[5],
              4: lin[6], 7: lin[7], 9: lin[8]}
    total = sum(merged.values())
    for d, p in zip(delays, powers):
        assert p == pytest.approx(merged[d] / total)
    assert powers.sum() == pytest.approx(1.0)
    # the profile is cached, so every caller shares these arrays
    assert not delays.flags.writeable and not powers.flags.writeable
    assert chan.eva_profile()[0] is delays


def test_eva_zero_doppler_when_static():
    rng = np.random.default_rng(0)
    paths = chan.generate_eva_channel(rng, nu_max_t=0.0, n_s=4114)
    assert np.all(paths.dopplers == 0.0)
    assert int(paths.delays.max()) + 1 <= 10


def test_eva_unit_power_monte_carlo():
    rng = np.random.default_rng(1)
    total = 0.0
    trials = 100_000
    delays, powers = chan.eva_profile()
    n_taps = len(delays)
    gains = np.sqrt(powers / 2) * (rng.standard_normal((trials, n_taps))
                                   + 1j * rng.standard_normal((trials, n_taps)))
    total = np.mean(np.sum(np.abs(gains) ** 2, axis=1))
    assert abs(total - 1.0) < 0.01


def test_bem_pathset_power_and_length():
    rng = np.random.default_rng(2)
    paths = chan.generate_eva_bem_channel(rng, 4109, order=7)
    length = int(paths.delays.max()) + 1
    assert length <= 10
    taps = paths.taps(np.arange(4109), length)
    assert taps.shape == (length, 4109)
    power = np.mean(np.abs(taps[paths.delays]) ** 2)
    assert power > 0
    assert np.array_equal(paths.taps(np.arange(4109), 2), taps[:2])


def test_bem_order_override_leaves_the_eva_bem_channel_unchanged():
    # the channel's order comes from nu_max_t alone; bem_order sizes the
    # estimator's basis and not the taps it is scored against
    base = SystemConfig(num_users=2, channel_model="eva-bem").validate()
    override = dataclasses.replace(base, bem_order=9).validate()
    assert override.beta != base.beta
    want = chan.draw_realization(np.random.default_rng(4), base)
    got = chan.draw_realization(np.random.default_rng(4), override)
    assert np.array_equal(got.to, want.to) and np.array_equal(got.cfo, want.cfo)
    for got_paths, want_paths in zip(got.paths, want.paths):
        assert np.array_equal(got_paths.delays, want_paths.delays)
        assert np.array_equal(got_paths.coeffs, want_paths.coeffs)


def test_taps_rows_match_per_path_sum():
    rng = np.random.default_rng(10)
    shared = chan.PathSet(gains=np.array([0.6, 0.3j, -0.5]), delays=np.array([2, 5, 2]),
                          dopplers=np.array([1e-4, -2e-4, 3e-4]))
    for paths in (random_pathset(rng, n_paths=4), shared):
        kappa = np.arange(50.0)
        length = int(paths.delays.max()) + 1
        taps = paths.taps(kappa, length)
        for ell in range(length):
            expected = sum((g * np.exp(2j * np.pi * nu * (kappa - d))
                            for g, d, nu in zip(paths.gains, paths.delays, paths.dopplers)
                            if d == ell), np.zeros(kappa.shape, complex))
            assert np.max(np.abs(taps[ell] - expected)) < 1e-14
        assert np.array_equal(paths.taps(kappa, 3), taps[:3])


def test_phase_ramp_matches_exp():
    # lengths below, at and past one block of kappa = B*a + b, and a full frame
    eps = np.finfo(float).eps
    block = chan.RAMP_BLOCK
    freqs = np.array([0.0, 1e-7, 0.5 / 4109, -4.91 / 4109, 0.37, -1.0 / 3])
    for n in (1, block - 1, block, block + 1, 4109):
        kappa = np.arange(n)
        ramp = chan.phase_ramp(freqs, n)
        assert ramp.shape == (freqs.size, n)
        exact = np.exp(2j * np.pi * freqs[:, None] * kappa)
        bound = 4 * eps * (1 + 2 * np.pi * np.abs(freqs[:, None]) * kappa)
        assert np.all(np.abs(ramp - exact) <= bound)
    assert chan.phase_ramp(0.25, 3).shape == (1, 3)


# -- sample-level application -------------------------------------------------

def direct_tap(paths, ell, k, n_s):
    """h[ell, k] from the path parameters: sum_i h_i exp(j 2 pi nu_i (k - ell))
    over the paths at delay ell, or the Chebyshev series in closed form
    T_g(x) = cos(g arccos x)."""
    if isinstance(paths, chan.BemPathSet):
        kprime = (2.0 * k - n_s + 1.0) / (n_s - 1.0)
        h = np.zeros(k.shape, complex)
        for delay, c in zip(paths.delays, paths.coeffs):
            if delay == ell:
                h += sum(cg * np.cos(g * np.arccos(kprime)) for g, cg in enumerate(c))
        return h
    return sum((g * np.exp(2j * np.pi * nu * (k - ell))
                for g, d, nu in zip(paths.gains, paths.delays, paths.dopplers)
                if d == ell), np.zeros(k.shape, complex))


def direct_receive(stream, paths, theta, eps, n_s):
    """exp(j 2 pi eps k / N_s) sum_l s[k - l - theta] h[l, k], the formula of
    the ``apply_channel`` docstring, delay by delay with one exp per sample."""
    k = np.arange(n_s)
    acc = np.zeros(n_s, complex)
    for ell in range(int(paths.delays.max()) + 1):
        src = k - ell - theta
        shifted = np.where(src >= 0, stream[np.maximum(src, 0)], 0)
        acc += shifted * direct_tap(paths, ell, k, n_s)
    return np.exp(2j * np.pi * eps * k / n_s) * acc


@pytest.mark.parametrize("model", ["eva", "eva-bem", "single-tap"])
def test_apply_channel_matches_definition_at_full_geometry(model):
    # N_s = 4109 is not a multiple of the ramp block, and the EVA taps span
    # the whole delay cap, so every ramp block and padded row is exercised
    cfg = dataclasses.replace(SystemConfig(), num_users=1, channel_model=model).validate()
    assert cfg.n_s % chan.RAMP_BLOCK != 0
    rng = np.random.default_rng(11)
    paths = chan.draw_realization(rng, cfg).paths[0]
    s = rng.standard_normal(cfg.n_s) + 1j * rng.standard_normal(cfg.n_s)
    for theta in (0, cfg.theta_max):
        for eps in (0.0, 0.5, -0.5, cfg.cfo_range, -cfg.cfo_range):
            real = chan.ChannelRealization(paths=[paths], to=np.array([theta]),
                                           cfo=np.array([eps]))
            r = chan.apply_channel([s], real, cfg.n_s, cfg.theta_max)
            expected = direct_receive(s, paths, theta, eps, cfg.n_s)
            assert np.max(np.abs(r - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("model", ["eva", "eva-bem", "single-tap"])
def test_apply_channel_sums_users_with_distinct_offsets(model):
    # Q = 4 users through one batched pass, each with its own TO and CFO
    cfg = dataclasses.replace(SystemConfig(), num_users=4, channel_model=model).validate()
    rng = np.random.default_rng(14)
    real = chan.draw_realization(rng, cfg)
    real.to[:] = [cfg.theta_max, 0, 2, 1]
    real.cfo[:] = [0.5, -cfg.cfo_range, cfg.cfo_range, -0.37]
    streams = rng.standard_normal((4, cfg.n_s)) + 1j * rng.standard_normal((4, cfg.n_s))
    r = chan.apply_channel(streams, real, cfg.n_s, cfg.theta_max)
    expected = sum(direct_receive(s, paths, theta, eps, cfg.n_s)
                   for s, paths, theta, eps in zip(streams, real.paths, real.to, real.cfo))
    assert np.max(np.abs(r - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("model", ["eva", "eva-bem", "single-tap", "identity"])
def test_shared_cfo_is_a_rotation_of_the_zero_cfo_stream(model):
    # one CFO for every user factors out of the user sum, which is what lets a
    # cfo_value sweep rotate one zero-CFO stream per trial
    cfg = dataclasses.replace(SystemConfig(), num_users=2, channel_model=model).validate()
    rng = np.random.default_rng(15)
    real = chan.draw_realization(rng, cfg)
    real.to[:] = [cfg.theta_max, 1]
    streams = rng.standard_normal((2, cfg.n_s)) + 1j * rng.standard_normal((2, cfg.n_s))
    real.cfo[:] = 0.0
    at_zero = chan.apply_channel(streams, real, cfg.n_s, cfg.theta_max)
    for eps in (-cfg.cfo_range, -0.4, 0.3, cfg.cfo_range):
        real.cfo[:] = eps
        r = chan.apply_channel(streams, real, cfg.n_s, cfg.theta_max)
        rotated = chan.phase_ramp(eps / cfg.n_s, cfg.n_s)[0] * at_zero
        assert np.max(np.abs(r - rotated)) <= 1e-12 * np.max(np.abs(r))


def test_frame_basis_cached_read_only_and_bem_apply_unchanged():
    cfg = dataclasses.replace(SystemConfig(), num_users=2, channel_model="eva-bem").validate()
    basis = chan.frame_basis(cfg.beta, cfg.n_s)
    assert chan.frame_basis(cfg.beta, cfg.n_s) is basis
    assert not basis.flags.writeable
    rng = np.random.default_rng(12)
    paths = chan.draw_realization(rng, cfg).paths
    streams = rng.standard_normal((2, cfg.n_s)) + 1j * rng.standard_normal((2, cfg.n_s))
    fresh = sync.build_bem_basis(cfg.beta, np.arange(cfg.n_s), cfg.n_s)
    assert np.array_equal(basis, fresh)
    coeffs = np.concatenate([p.coeffs for p in paths])
    for thetas, eps in (([0, 0], [0.0, 0.0]), ([cfg.theta_max, 1], [-0.37, 0.21])):
        thetas, freqs = np.array(thetas), np.array(eps) / cfg.n_s
        # the same formula on a basis built for this call
        copies = np.concatenate([
            chan.delayed_copies(streams, np.full(p.delays.size, q), p.delays + thetas[q])
            * chan.phase_ramp(freqs[q], cfg.n_s)
            for q, p in enumerate(paths)])
        expected = np.einsum("kg,gk->k", fresh, coeffs.T @ copies)
        assert np.array_equal(chan.BemPathSet.apply(paths, streams, thetas, freqs), expected)


def test_path_set_apply_allocates_no_ramp_per_path():
    cfg = dataclasses.replace(SystemConfig(), num_users=4).validate()
    rng = np.random.default_rng(13)
    real = chan.draw_realization(rng, cfg)
    streams = rng.standard_normal((4, cfg.n_s)) + 1j * rng.standard_normal((4, cfg.n_s))
    freqs = real.cfo / cfg.n_s
    chan.PathSet.apply(real.paths, streams, real.to, freqs)    # warm
    tracemalloc.start()
    try:
        chan.PathSet.apply(real.paths, streams, real.to, freqs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the delayed copies of every user's paths take one (paths, N_s) array; a
    # ramp and its product with the copies would take two more
    assert peak <= 2 * sum(p.gains.size for p in real.paths) * cfg.n_s * 16


def test_identity_channel_passthrough():
    cfg = small_config(num_users=1)
    rng = np.random.default_rng(3)
    s = rng.standard_normal(cfg.n_s) + 1j * rng.standard_normal(cfg.n_s)
    real = chan.ChannelRealization(paths=[chan.identity_pathset()],
                                   to=np.array([0]), cfo=np.array([0.0]))
    r = chan.apply_channel([s], real, cfg.n_s, cfg.theta_max)
    assert np.max(np.abs(r - s)) < 1e-14


def test_pure_cfo_rotation():
    cfg = small_config(num_users=1)
    rng = np.random.default_rng(4)
    s = rng.standard_normal(cfg.n_s) + 1j * rng.standard_normal(cfg.n_s)
    eps = 0.37
    real = chan.ChannelRealization(paths=[chan.identity_pathset()],
                                   to=np.array([0]), cfo=np.array([eps]))
    r = chan.apply_channel([s], real, cfg.n_s, cfg.theta_max)
    ramp = np.exp(2j * np.pi * eps * np.arange(cfg.n_s) / cfg.n_s)
    assert np.max(np.abs(r - ramp * s)) < 1e-12


def test_rearranged_form_identity():
    # Eq-form with CFO inside vs CFO absorbed into effective taps:
    # h_i -> h_i exp(j 2 pi delta l_i), nu_i -> nu_i + delta, delta = eps/N_s
    cfg = small_config()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        paths = random_pathset(rng, n_s=cfg.n_s)
        theta = int(rng.integers(0, cfg.theta_max + 1))
        eps = float(rng.uniform(-0.5, 0.5))
        s = rng.standard_normal(cfg.n_s) + 1j * rng.standard_normal(cfg.n_s)
        real = chan.ChannelRealization(paths=[paths], to=np.array([theta]),
                                       cfo=np.array([eps]))
        r = chan.apply_channel([s], real, cfg.n_s, cfg.theta_max)
        delta = eps / cfg.n_s
        checked = chan.PathSet(
            gains=paths.gains * np.exp(2j * np.pi * delta * paths.delays),
            delays=paths.delays,
            dopplers=paths.dopplers + delta,
        )
        real2 = chan.ChannelRealization(paths=[checked], to=np.array([theta]),
                                        cfo=np.array([0.0]))
        r2 = chan.apply_channel([s], real2, cfg.n_s, cfg.theta_max)
        worst = max(worst, np.max(np.abs(r - r2)))
    assert worst < 1e-10


def test_to_bound_enforced():
    cfg = small_config(num_users=1)
    s = np.zeros(cfg.n_s, complex)
    real = chan.ChannelRealization(paths=[chan.identity_pathset()],
                                   to=np.array([cfg.theta_max + 1]),
                                   cfo=np.array([0.0]))
    with pytest.raises(RealizationError, match="exceeds theta_max"):
        chan.apply_channel([s], real, cfg.n_s, cfg.theta_max)


def test_apply_channel_rejects_inconsistent_users():
    cfg = small_config()
    rng = np.random.default_rng(15)
    streams = np.zeros((2, cfg.n_s), complex)
    mixed = chan.ChannelRealization(
        paths=[chan.identity_pathset(),
               chan.generate_eva_bem_channel(rng, cfg.n_s, 3)],
        to=np.array([0, 0]), cfo=np.array([0.0, 0.0]))
    with pytest.raises(RealizationError, match="share a path model"):
        chan.apply_channel(streams, mixed, cfg.n_s, cfg.theta_max)
    single = chan.ChannelRealization(paths=[chan.identity_pathset()],
                                     to=np.array([0]), cfo=np.array([0.0]))
    with pytest.raises(RealizationError, match="2 streams for 1 users"):
        chan.apply_channel(streams, single, cfg.n_s, cfg.theta_max)


# -- AWGN ---------------------------------------------------------------------

def test_awgn_infinite_snr_passthrough():
    rng = np.random.default_rng(6)
    s = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    out = chan.add_awgn(s, np.inf, chan.unit_noise(rng, s.shape))
    assert np.array_equal(out, s)


def test_awgn_variance_moment():
    rng = np.random.default_rng(7)
    out = chan.add_awgn(np.zeros(1_000_000, complex), 0.0,
                        chan.unit_noise(rng, 1_000_000))  # sigma^2 = 1
    var = np.mean(np.abs(out) ** 2)
    assert abs(var - 1.0) < 0.01


def test_awgn_deterministic_given_seed():
    s = np.ones(128, complex)
    a = chan.add_awgn(s, 10.0, chan.unit_noise(np.random.default_rng(42), s.shape))
    b = chan.add_awgn(s, 10.0, chan.unit_noise(np.random.default_rng(42), s.shape))
    assert np.array_equal(a, b)


# -- compound channel ----------------------------------------------------------

def test_compound_identity_channel_is_identity():
    cfg = small_config(num_users=1)
    real = chan.ChannelRealization(paths=[chan.identity_pathset()],
                                   to=np.array([0]), cfo=np.array([0.0]))
    compound = build_compound_channel(real, cfg)
    assert np.max(np.abs(compound.psi_dd - np.eye(cfg.m * cfg.n))) < 1e-10


def keystone_error(cfg, rng, realization):
    """Max-abs difference between the matrix path and the sample path."""
    frames = [np.where(bin_mask(cfg, q),
                       modem.qam4_symbols(rng, (cfg.m, cfg.n)), 0)
              for q in range(cfg.num_users)]
    streams = [modem.transmit(f, cfg.cp_len) for f in frames]
    r = chan.apply_channel(streams, realization, cfg.n_s, cfg.theta_max)
    y = modem.remove_cp(r[cfg.theta_max:], cfg.cp_rem)
    d_tilde = demodulate(y, cfg.m, cfg.n).flatten(order="F")
    compound = build_compound_channel(realization, cfg)
    d = sum(f.flatten(order="F") for f in frames)
    return np.max(np.abs(compound.psi_dd @ d - d_tilde))


def test_keystone_matrix_equals_samples():
    cfg = small_config()
    rng = np.random.default_rng(8)
    for _ in range(20):
        real = chan.ChannelRealization(
            paths=[random_pathset(rng, n_s=cfg.n_s) for _ in range(2)],
            to=rng.integers(0, cfg.theta_max + 1, 2),
            cfo=rng.uniform(-0.5, 0.5, 2))
        assert keystone_error(cfg, rng, real) < 1e-9


def test_keystone_with_bem_paths():
    cfg = small_config()
    rng = np.random.default_rng(9)
    real = chan.ChannelRealization(
        paths=[chan.generate_eva_bem_channel(rng, cfg.n_s, 4)
               for _ in range(2)],
        to=rng.integers(0, cfg.theta_max + 1, 2),
        cfo=rng.uniform(-0.5, 0.5, 2))
    assert keystone_error(cfg, rng, real) < 1e-9


def test_pure_cfo_block_is_block_circulant():
    # with only a CFO, the delay-Doppler operator is circulant across Doppler
    # blocks with diagonal blocks: entries depend on (doppler row - doppler col)
    cfg = small_config(num_users=1)
    real = chan.ChannelRealization(paths=[chan.identity_pathset()],
                                   to=np.array([0]), cfo=np.array([0.4]))
    compound = build_compound_channel(real, cfg)
    phi = compound.phi_dd[0]
    m, n = cfg.m, cfg.n
    blocks = phi.reshape(m, n, m, n, order="F")
    for k1 in range(n):
        for k2 in range(n):
            block = blocks[:, k1, :, k2]
            ref = blocks[:, (k1 + 1) % n, :, (k2 + 1) % n]
            assert np.max(np.abs(block - ref)) < 1e-10
            off_diag = block - np.diag(np.diag(block))
            assert np.max(np.abs(off_diag)) < 1e-10


def test_time_invariant_channel_block_structure():
    # nu = 0, theta = 0, eps = 0: block-diagonal across Doppler; each block is
    # the delay-shift convolution whose wrapped entries carry the per-block
    # phase exp(-j 2 pi k / N) (the frame-level CP makes the stream circular
    # over M*N samples, not per slot), so blocks agree in magnitude.
    cfg = small_config(m=8, n=4, num_users=1, zc_len=3, nu_max_t=0.0, bem_order=1)
    gains = {0: 0.8, 2: 0.5 - 0.2j}
    paths = chan.PathSet(gains=np.array([gains[0], gains[2]]),
                         delays=np.array([0, 2]),
                         dopplers=np.array([0.0, 0.0]))
    real = chan.ChannelRealization(paths=[paths], to=np.array([0]),
                                   cfo=np.array([0.0]))
    compound = build_compound_channel(real, cfg)
    lam = compound.lambda_dd[0].reshape(cfg.m, cfg.n, cfg.m, cfg.n, order="F")
    mag0 = np.abs(lam[:, 0, :, 0])
    for k1 in range(cfg.n):
        for k2 in range(cfg.n):
            block = lam[:, k1, :, k2]
            if k1 != k2:
                assert np.max(np.abs(block)) < 1e-10
                continue
            assert np.max(np.abs(np.abs(block) - mag0)) < 1e-10
            twist = np.exp(-2j * np.pi * k1 / cfg.n)
            expected = np.zeros((cfg.m, cfg.m), dtype=complex)
            for ell, gain in gains.items():
                for i in range(cfg.m):
                    expected[i, (i - ell) % cfg.m] += gain * (twist if i < ell else 1.0)
            assert np.max(np.abs(block - expected)) < 1e-10
