"""Direct forms of the receive-side estimators: the oracles for ``sync``.

``separate_user_one`` filters one user's band with its own DFT and IDFT of
the whole (M, N) grid of a stream; ``sync.separate_user`` filters any
columns of a slot-major grid, and the receiver filters only a pilot
region's columns.
``pcp_correlation_one`` correlates one separated stream with the PCP by
``np.correlate``, and ``timing_correlate_one`` averages its magnitude into
the timing curve; ``sync.timing_correlate`` takes every user's filtered
correlation of the unseparated stream at once, as one weight on its
M*N-point DFT.
``timing_correlate_template`` slides every slot's pilot block of the full
delay-time template over the serialized stream, one (N, M, span) window
einsum; ``sync.timing_correlate`` correlates with the PCP alone.
``assert_same_timing`` holds ``sync``'s timing curves to an oracle's within
CURVE_TOL of its peak, and their TO decisions to the oracle's.
``regressor_matrix`` builds the dense (N*L_p, L_p*beta) LS regressor G of a
pilot template, and ``DenseRegressor`` projects through the orthonormal
factor Q of its pivoted QR; ``sync.BemRegressor``, the one table per
(geometry, theta_hat, beta) that ``sync.estimator_bundle`` returns, fits
the Doppler-free template one delay row at a time over the region's
virtual slots and never forms G.  ``bundle_template`` is that template,
user 0's modulated-frame template de-rotated by its slot phase.
``newton_max`` is the safeguarded Newton ascent of one lane, a scalar loop;
``sync.newton_max_many`` refines every lane of a search at once.
``estimate_cfo_exact`` refines the CFO by ``newton_max`` on the exact cost
derivatives, each one (3, N*L_p) product with Q, and solves the LS fit
through ``DenseRegressor.coeffs``; ``sync.estimate_cfo`` reads both from the
slot-lag correlations of the table's slot rows.
``own_bundle_back_end`` fits one user's received region on a dense
regressor factorized on that user's own pilot template, with a dense scan,
exact Newton and the ``coeffs`` solve; ``sync.synchronize_user`` and
``harness.absorbed_channel_fit`` share one table across users, read one
stack of regions (``sync.stack_regions``; one ``sync.pilot_regions``
result is such a stack) and de-rotate each user's region to its
Doppler-free template.
``nmse`` scores reconstructed tap trajectories against the truth taps
directly; ``harness.channel_nmse`` scores the basis coefficients in closed
form.
``front_end_chain`` separates and correlates one received stream by the
per-user chain, which calls neither ``sync.separate_user`` nor
``sync.timing_correlate``: CP removal, then each user's
``separate_user_one`` and ``pcp_correlation_one``.
``per_point_trial`` runs a trial of one SNR point by the per-point chain:
the noise added to the received stream, then the timing curves of
``front_end_chain``, and each user's ``sync.pilot_regions`` and
``sync.synchronize_user`` on that one stream, one lane, scored by ``nmse``
on the reconstructed taps; on a draw whose front end has a lane per point
(an SNR sweep's), each lane reads the shared stream of the signal and the
unit noise at its noise amplitude, and ``harness.score_block`` stacks the
regions of every user and lane of a block of draws that reaches the same
theta_hat once, searches and fits that stack, and scores in closed form.
"""

import math

import numpy as np
import scipy.linalg

from dd_oracle import pilot_region_ref
from otfsync import channel as chan
from otfsync import harness, modem, pilot, sync

#: largest difference between a timing curve of ``sync`` and its oracle, as a
#: share of the oracle curve's peak: the folded correlation sums in another order
CURVE_TOL = 1e-13


def separate_user_one(stream, user, cfg):
    """One user's brickwall Doppler filter: per-delay-row DFT -> mask -> IDFT
    over the M x N reshape of the stream."""
    grid = np.asarray(stream).reshape(cfg.m, cfg.n, order="F")
    spectrum = np.fft.fft(grid, axis=1)
    spectrum[:, ~sync.doppler_mask(cfg, user)] = 0.0
    return np.fft.ifft(spectrum, axis=1).flatten(order="F")


def pcp_correlation_one(separated, pcp, cfg):
    """One user's (M*N,) lag correlation, lag n*M + d at index n*M + d: one
    circular ``np.correlate`` of the serialized stream with the PCP taps,
    starting at the config's delay_lo."""
    lo = cfg.delay_lo
    stream = np.concatenate([separated[lo:], separated[:lo + pcp.size - 1]])
    return np.correlate(stream, pcp, "valid")


def timing_correlate_one(separated, pcp, cfg):
    """One user's (M,) timing curve from ``pcp_correlation_one``."""
    m, n = cfg.m, cfg.n
    corr = pcp_correlation_one(separated, pcp, cfg)
    curve = np.abs(corr).reshape(n, m).mean(axis=0) / (m * math.sqrt(n))
    shift = (cfg.cp_len - cfg.anchor - 1) % m
    return np.roll(curve, -shift)


def assert_same_timing(got, want, cfg):
    """(..., M) timing curves within CURVE_TOL of each oracle curve's peak,
    with the same TO decisions (``sync.estimate_to``)."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= CURVE_TOL * np.max(want, axis=-1, keepdims=True))
    got_to, want_to = sync.estimate_to(got, cfg), sync.estimate_to(want, cfg)
    assert np.array_equal(got_to.first_peak, want_to.first_peak)
    assert np.array_equal(got_to.max_peak, want_to.max_peak)


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


def newton_max(fun, x, lo, hi, tol):
    """Safeguarded Newton ascent on [lo, hi] from x, where fun(x) returns
    (f, f', f''); returns the best evaluated (x, f).

    The sign of f' shrinks the bracket [a, b].  A step that is not an ascent
    step (f'' >= 0), or that leaves the bracket through an end already
    evaluated, becomes a bisection, i.e. a half-bracket step along f'; any
    other step is clamped to the bracket.  Stops at a step below
    NEWTON_STEP_FRAC * tol, at f' = 0 or after NEWTON_MAX_ITER evaluations.
    """
    a, b = float(lo), float(hi)
    a_seen = b_seen = False
    x_best, f_best = x, -math.inf
    for _ in range(sync.NEWTON_MAX_ITER):
        f, f1, f2 = fun(x)
        if f > f_best:
            x_best, f_best = x, f
        if f1 > 0:
            a, a_seen = x, True
        elif f1 < 0:
            b, b_seen = x, True
        else:
            break
        target = x - f1 / f2 if f2 < 0 else None
        if target is None or (target >= b and b_seen) or (target <= a and a_seen):
            target = 0.5 * (a + b)
        x_next = min(max(target, a), b)
        if abs(x_next - x) < sync.NEWTON_STEP_FRAC * tol:
            break
        x = x_next
    return x_best, f_best


def nmse(estimate, truth, energy=None):
    """||estimate - truth||^2 / ||truth||^2 of tap trajectories, NaN for an
    all-zero truth; ``energy``, if given, is ||truth||^2."""
    denom = np.vdot(truth, truth).real if energy is None else energy
    if denom == 0:
        return math.nan
    error = estimate - truth
    return float(np.vdot(error, error).real / denom)


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
    x_ref, f_ref = newton_max(
        lambda e: cfo_cost_derivatives(rflat, regressor, kflat, e, cfg.n_s),
        float(grid[best]), lo, hi, cfg.cfo_tol)
    eps_hat = float(grid[best]) if cost_curve[best] >= f_ref else float(x_ref)
    c_hat = regressor.coeffs(np.conj(sync.cfo_phase(kflat, eps_hat, cfg.n_s)) * rflat)
    return eps_hat, c_hat


def own_bundle_back_end(row, user, theta, cfg, pcp, absorbed_beta):
    """(eps_hat, c_hat, h_hat, h_absorbed) of user ``user`` at timing offset
    ``theta`` from a dense regressor on the user's own pilot template
    (``pilot_region_ref(user)``) applied to the received region as it
    is, read at ``pilot.region_index`` from the user's ``separate_user_one``
    of the CP-removed (M*N,) ``row``: the cost of every grid point from its
    own rotation, exact Newton (``estimate_cfo_exact``), and the absorbed
    baseline as the ``coeffs`` solve at zero offset on a basis of order
    ``absorbed_beta``."""
    region = separate_user_one(row, user, cfg)[pilot.region_index(cfg, theta)]
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
    their (Q, M*N) lag correlations: the timing-offset margin and the rest
    of the CP removed, then each user's ``separate_user_one`` and
    ``pcp_correlation_one``."""
    y = modem.remove_cp(stream[cfg.theta_max:], cfg.cp_rem)
    separated = np.stack([separate_user_one(y, user, cfg) for user in range(cfg.num_users)])
    return separated, np.stack([pcp_correlation_one(row, pcp, cfg) for row in separated])


def per_point_trial(cfg, trial_index, absorbed=False):
    """One dict per user of trial ``trial_index`` of ``cfg``'s SNR point,
    with the fields of ``harness.UserTrialRecord`` that it estimates and the
    ``timing_metric`` and ``cfo_cost`` of its debug entry, by the per-point
    chain on ``harness.draw_trial``'s stream and unit noise."""
    draw = harness.draw_trial(cfg, trial_index)
    received = chan.add_awgn(draw.rx, cfg.snr_db, draw.noise)
    _, corr = front_end_chain(received, draw.pcp, cfg)
    curves = sync.timing_curve(corr, cfg)[np.newaxis]
    rows = modem.remove_cp(received[cfg.theta_max:], cfg.cp_rem)
    front = sync.FrontEnd(cfg=cfg, rows=rows[np.newaxis, np.newaxis],
                          stream=np.zeros(1, dtype=np.intp), amplitude=np.zeros(1),
                          curves=curves, to_estimate=sync.estimate_to(curves, cfg))
    first, peak = front.to_estimate.first_peak[0], front.to_estimate.max_peak[0]
    users = []
    for q in range(cfg.num_users):
        theta_true = int(draw.realization.to[q])
        eps_true = float(draw.realization.cfo[q])
        theta = theta_true if cfg.genie_to else int(first[q])
        regions = sync.pilot_regions(front, q, theta, [0])
        (estimate,) = sync.synchronize_user(regions, theta, cfg)
        h_hat = sync.reconstruct_channel(estimate.c_hat, sync.estimator_bundle(cfg, theta).bem)
        user = {"theta_first": int(first[q]), "theta_max": int(peak[q]),
                "eps_hat": estimate.epsilon_hat, "nmse": nmse(h_hat, draw.truth[q]),
                "timing_metric": front.curves[0, q], "cfo_cost": estimate.cost_curve}
        if absorbed:
            beta = harness.absorbed_beta(cfg)
            c_abs = harness.absorbed_channel_fit(regions, cfg, theta, beta)
            h_abs = sync.reconstruct_channel(c_abs[0], sync.estimator_bundle(cfg, theta, beta).bem)
            phase = sync.cfo_phase(pilot.region_kappa(cfg, theta_true), eps_true, cfg.n_s)
            user["nmse_absorbed"] = nmse(h_abs, draw.truth[q] * phase[:, None, :])
        users.append(user)
    return users
