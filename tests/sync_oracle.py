"""Direct forms of the receive-side estimators: the oracles for ``sync``.

``separate_user_one`` filters one user's band with its own DFT and IDFT of
the (M, N) grid; ``sync.separate_user`` runs the whole bank on one DFT.
``timing_correlate_one`` correlates one separated stream with the PCP by
``np.correlate``; ``sync.timing_correlate`` correlates every user at once
as a blocked Toeplitz product.
``timing_correlate_template`` slides every slot's pilot block of the full
delay-time template over the serialized stream, one (N, M, span) window
einsum; ``sync.timing_correlate`` correlates with the PCP alone.
``regressor_matrix`` builds the dense (N*L_p, L_p*beta) LS regressor G of a
pilot template, and ``DenseRegressor`` projects through the orthonormal
factor Q of its pivoted QR; ``sync.BemRegressor``, the one table per
(geometry, theta_hat, beta) that ``sync.estimator_bundle`` returns, fits
the Doppler-free template one delay row at a time over the region's
virtual slots and never forms G.  ``bundle_template`` is that template,
user 0's modulated-frame template de-rotated by its slot phase.
``estimate_cfo_exact`` refines the CFO by Newton steps on the exact cost
derivatives, each one (3, N*L_p) product with Q, and solves the LS fit
through ``DenseRegressor.coeffs``; ``sync.estimate_cfo`` reads both from the
slot-lag correlations of the table's slot rows.
``own_bundle_back_end`` fits one user's received region on a dense
regressor factorized on that user's own pilot template, with a dense scan,
exact Newton and the ``coeffs`` solve; ``sync.synchronize_user`` and
``harness.absorbed_channel_fit`` share one table across users and
de-rotate each user's region to its Doppler-free template.
``front_end_chain`` separates and correlates one received stream by the
per-stream chain: CP removal, the filter bank and the PCP correlation.
``per_point_trial`` runs a trial of one SNR point by the per-point chain:
the noise added to the received stream, then ``front_end_chain``, the
timing curve and ``sync.synchronize_user`` of each user on that one stream,
one lane; on a draw whose front end has a lane per point (an SNR sweep's),
each lane reads the shared stream of the signal and the unit noise at its
noise amplitude, and ``harness.score_draw`` searches each user once for
every lane that reaches the same theta_hat.
"""

import math

import numpy as np
import scipy.linalg

from dd_oracle import pilot_region_ref
from otfsync import channel as chan
from otfsync import harness, modem, pilot, sync


def separate_user_one(stream, user, cfg):
    """One user's brickwall Doppler filter: per-delay-row DFT -> mask -> IDFT
    over the M x N reshape of the stream."""
    grid = np.asarray(stream).reshape(cfg.m, cfg.n, order="F")
    spectrum = np.fft.fft(grid, axis=1)
    spectrum[:, ~sync.doppler_mask(cfg, user)] = 0.0
    return np.fft.ifft(spectrum, axis=1).flatten(order="F")


def timing_correlate_one(separated, pcp, cfg):
    """One user's (M,) timing curve: one circular ``np.correlate`` of the
    serialized stream with the PCP taps, starting at the config's delay_lo."""
    m, n = cfg.m, cfg.n
    lo = cfg.delay_lo
    stream = np.concatenate([separated[lo:], separated[:lo + pcp.size - 1]])
    corr = np.correlate(stream, pcp, "valid")             # lag n*M + d
    curve = np.abs(corr).reshape(n, m).mean(axis=0) / (m * math.sqrt(n))
    shift = (cfg.cp_len - cfg.anchor - 1) % m
    return np.roll(curve, -shift)


def timing_correlate_template(separated, template, cfg):
    """(M,) per-delay-bin timing curve from the (M, N) delay-time pilot
    template, at the config's pilot span and CP."""
    m, n = template.shape
    lo = cfg.delay_lo
    span = 2 * cfg.zc_len - 1
    block = template[lo:lo + span, :]        # (span, N) pilot samples per slot
    seg_len = m + span - 1
    extended = np.concatenate([separated, separated[:m]])  # frame CP wrap
    segments = extended[(np.arange(n) * m + lo)[:, None] + np.arange(seg_len)]
    windows = np.lib.stride_tricks.sliding_window_view(segments, span, axis=1)
    corr = np.einsum("ndz,zn->nd", windows, np.conj(block))
    p2d = np.abs(corr.T) / m                 # (M, N), lag d peaks at the offset
    shift = (cfg.cp_len - cfg.anchor - 1) % m
    p2d = p2d[(np.arange(m) + shift) % m, :]
    return p2d.mean(axis=1)


def regressor_matrix(sbar, bem):
    """The (N*L_p, L_p*beta) LS regressor G of the pilot region.

    ``sbar[n, j]`` is the transmitted pilot sample at region position (n, j).
    Column (l, g) carries the l-shifted pilot (the circular shift of each
    slot's template realizes the tap convolution) times basis order g, so
    ``G @ c`` reproduces the convolved pilot for tap trajectories
    h[l, .] = sum_g c[l*beta+g] T_g(.).
    """
    n_slots, lp = sbar.shape
    assert bem.shape[:2] == (n_slots, lp)
    j = np.arange(lp)
    shifted = sbar[:, (j[:, None] - j[None, :]) % lp]          # (N, j, l)
    g4 = shifted[:, :, :, None] * bem[:, :, None, :]           # (N, j, l, g)
    return g4.reshape(n_slots * lp, lp * bem.shape[-1])


def bundle_template(cfg, pcp):
    """(N, L_p) Doppler-free template 1 (x) p that every table fits: user 0's
    modulated-frame template de-rotated by its slot phase."""
    return np.conj(pilot.slot_phase(cfg, 0))[:, None] * pilot_region_ref(cfg, pcp, 0)


class DenseRegressor:
    """The regressor G of ``regressor_matrix`` as its dense pivoted QR
    factors: projections w = Q^H z of rows z, their squared norms, and the LS
    coefficients P R^-1 w."""

    def __init__(self, sbar, bem):
        q, self.r, self.piv = scipy.linalg.qr(regressor_matrix(sbar, bem),
                                              mode="economic", pivoting=True)
        self.qconj = np.conj(q)

    def project(self, z_batch):
        return z_batch @ self.qconj

    def cost_many(self, z_batch):
        w = self.project(z_batch)
        return np.sum(np.abs(w) ** 2, axis=1), w

    def coeffs(self, z):
        sol = scipy.linalg.solve_triangular(self.r, self.qconj.T @ z)
        c = np.empty_like(sol)
        c[self.piv] = sol
        return c


def dense_regressor(bundle, cfg, pcp):
    """The dense regressor of a table of ``cfg`` (``sync.estimator_bundle``):
    its template on its basis."""
    return DenseRegressor(bundle_template(cfg, pcp), bundle.bem)


def cfo_cost_derivatives(rbar, regressor, kappa, eps, n_s):
    """g(eps) of ``sync.cfo_cost`` and its first two derivatives from one
    (3, N*L_p) product: with z = Phi^H(eps) rbar, d = -j 2 pi kappa / N_s and
    w_i = Q^H (d^i z), g = ||w0||^2, g' = 2 Re(w0^H w1) and
    g'' = 2 (||w1||^2 + Re(w0^H w2))."""
    d = -2j * np.pi * np.asarray(kappa, dtype=float).ravel() / n_s
    z = np.exp(d * eps) * np.asarray(rbar).ravel()
    w0, w1, w2 = regressor.project(np.stack([z, d * z, d * d * z]))
    return (float(np.vdot(w0, w0).real), 2.0 * float(np.vdot(w0, w1).real),
            2.0 * float(np.vdot(w1, w1).real + np.vdot(w0, w2).real))


def estimate_cfo_exact(region, kappa, regressor, cfg, cost_curve):
    """(eps_hat, c_hat) of the (N, L_p) region at the sample indices
    ``kappa`` by exact Newton on the ``DenseRegressor`` from the best point
    of ``cost_curve`` over the CFO grid on [best +- cfo_step] within
    +-cfo_range, then the ``coeffs`` solve."""
    grid = sync.cfo_grid(cfg.cfo_range, cfg.cfo_step)
    rflat = region.ravel()
    kflat = kappa.ravel().astype(float)
    best = int(np.argmax(cost_curve))
    lo = max(grid[best] - cfg.cfo_step, -cfg.cfo_range)
    hi = min(grid[best] + cfg.cfo_step, cfg.cfo_range)
    x_ref, f_ref = sync.newton_max(
        lambda e: cfo_cost_derivatives(rflat, regressor, kflat, e, cfg.n_s),
        float(grid[best]), lo, hi, cfg.cfo_tol)
    eps_hat = float(grid[best]) if cost_curve[best] >= f_ref else float(x_ref)
    c_hat = regressor.coeffs(np.conj(sync.cfo_phase(kflat, eps_hat, cfg.n_s)) * rflat)
    return eps_hat, c_hat


def own_bundle_back_end(separated, user, theta, cfg, pcp, absorbed_beta):
    """(eps_hat, c_hat, h_hat, h_absorbed) of user ``user`` at timing offset
    ``theta`` from a dense regressor on the user's own pilot template
    (``pilot_region_ref(user)``) applied to the received region as it
    is: the cost of every grid point from its own rotation, exact Newton
    (``estimate_cfo_exact``), and the absorbed baseline as the ``coeffs``
    solve at zero offset on a basis of order ``absorbed_beta``."""
    region = sync.extract_pilot_region(separated[user], theta, cfg)
    kappa = pilot.region_kappa(cfg, theta)
    sbar = pilot_region_ref(cfg, pcp, user)
    rflat, kflat = region.ravel(), kappa.ravel().astype(float)
    bem = sync.build_bem_basis(cfg.beta, kappa, cfg.n_s)
    regressor = DenseRegressor(sbar, bem)
    grid = sync.cfo_grid(cfg.cfo_range, cfg.cfo_step)
    dense = np.exp(-2j * np.pi * np.outer(grid, kflat) / cfg.n_s) * rflat
    eps_hat, c_hat = estimate_cfo_exact(region, kappa, regressor, cfg,
                                        regressor.cost_many(dense)[0])
    bem_abs = sync.build_bem_basis(absorbed_beta, kappa, cfg.n_s)
    c_abs = DenseRegressor(sbar, bem_abs).coeffs(rflat)
    return (eps_hat, c_hat, sync.reconstruct_channel(c_hat, bem),
            sync.reconstruct_channel(c_abs, bem_abs))


def front_end_chain(stream, pcp, cfg):
    """The (Q, M*N) separated streams of one received (N_s,) stream and
    their lag correlation: the timing-offset margin and the rest of the CP
    removed, then ``sync.separate_user`` and ``sync.timing_correlate``."""
    y = modem.remove_cp(stream[cfg.theta_max:], cfg.cp_rem, out_len=cfg.m * cfg.n)
    separated = sync.separate_user(y, cfg)
    return separated, sync.timing_correlate(separated, pcp, cfg)


def per_point_trial(cfg, trial_index, absorbed=False):
    """One dict per user of trial ``trial_index`` of ``cfg``'s SNR point,
    with the fields of ``harness.UserTrialRecord`` that it estimates and the
    ``timing_metric`` and ``cfo_cost`` of its debug entry, by the per-point
    chain on ``harness.draw_trial``'s stream and unit noise."""
    draw = harness.draw_trial(cfg, trial_index)
    separated, corr = front_end_chain(chan.add_awgn(draw.rx, cfg.snr_db, draw.noise),
                                      draw.pcp, cfg)
    curves = sync.timing_curve(corr, cfg)[np.newaxis]
    front = sync.FrontEnd(cfg=cfg, separated=separated[np.newaxis, np.newaxis],
                          stream=np.zeros(1, dtype=np.intp), amplitude=np.zeros(1),
                          curves=curves, to_estimate=sync.estimate_to(curves, cfg))
    first, peak = front.to_estimate.first_peak[0], front.to_estimate.max_peak[0]
    users = []
    for q in range(cfg.num_users):
        theta_true = int(draw.realization.to[q])
        eps_true = float(draw.realization.cfo[q])
        theta = theta_true if cfg.genie_to else int(first[q])
        (region,), (estimate,) = sync.synchronize_user(front, q, theta, [0])
        user = {"theta_first": int(first[q]), "theta_max": int(peak[q]),
                "eps_hat": estimate.epsilon_hat,
                "nmse": harness._nmse(estimate.h_hat, draw.truth[q]),
                "timing_metric": front.curves[0, q], "cfo_cost": estimate.cost_curve}
        if absorbed:
            h_abs = harness.absorbed_channel_fit(region, cfg, q, theta,
                                                 harness.absorbed_beta(cfg))
            phase = sync.cfo_phase(pilot.region_kappa(cfg, theta_true), eps_true, cfg.n_s)
            user["nmse_absorbed"] = harness._nmse(h_abs, draw.truth[q] * phase[:, None, :])
        users.append(user)
    return users
