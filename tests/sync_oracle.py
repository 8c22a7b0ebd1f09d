"""Direct forms of the receive-side estimators: the oracles for ``sync``.

``timing_correlate_template`` slides every slot's pilot block of the full
delay-time template over the serialized stream, one (N, M, span) window
einsum; ``sync.timing_correlate`` correlates with the PCP alone.
``estimate_cfo_exact`` refines the CFO by Newton steps on the exact cost
derivatives, each one (3, N*L_p) product, and solves the LS fit through
``BemRegressor.coeffs``; ``sync.estimate_cfo`` reads both from a local
Chebyshev interpolant.
"""

import numpy as np

from otfsync import sync


def timing_correlate_template(separated, template, placement, cp_len):
    """Per-delay-bin timing curve from the (M, N) delay-time pilot template."""
    m, n = template.shape
    lo = placement.delay_lo
    span = 2 * placement.zc_len - 1
    block = template[lo:lo + span, :]        # (span, N) pilot samples per slot
    seg_len = m + span - 1
    extended = np.concatenate([separated, separated[:m]])  # frame CP wrap
    segments = extended[(np.arange(n) * m + lo)[:, None] + np.arange(seg_len)]
    windows = np.lib.stride_tricks.sliding_window_view(segments, span, axis=1)
    corr = np.einsum("ndz,zn->nd", windows, np.conj(block))
    p2d = np.abs(corr.T) / m                 # (M, N), lag d peaks at the offset
    shift = (cp_len - placement.anchor - 1) % m
    p2d = p2d[(np.arange(m) + shift) % m, :]
    return sync.TimingMetric(curve=p2d.mean(axis=1), cp_len=cp_len, anchor=placement.anchor)


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


def estimate_cfo_exact(region, bundle, cfg, cost_curve):
    """(eps_hat, c_hat) by exact Newton from the best point of ``cost_curve``
    on [best +- cfo_step] within +-cfo_range, then the ``coeffs`` solve."""
    grid, regressor = bundle.grid, bundle.regressor
    rflat = region.samples.ravel()
    kflat = region.kappa.ravel().astype(float)
    best = int(np.argmax(cost_curve))
    lo = max(grid[best] - cfg.cfo_step, -cfg.cfo_range)
    hi = min(grid[best] + cfg.cfo_step, cfg.cfo_range)
    x_ref, f_ref = sync.newton_max(
        lambda e: cfo_cost_derivatives(rflat, regressor, kflat, e, cfg.n_s),
        float(grid[best]), lo, hi, cfg.cfo_tol)
    eps_hat = float(grid[best]) if cost_curve[best] >= f_ref else float(x_ref)
    c_hat = regressor.coeffs(np.conj(sync.cfo_phase(kflat, eps_hat, cfg.n_s)) * rflat)
    return eps_hat, c_hat
