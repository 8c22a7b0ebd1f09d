"""Receiver-side estimation: filter-bank user separation, correlation-based
timing-offset estimation, and ML carrier-frequency-offset plus channel
estimation on a Chebyshev basis expansion.

The users share the receiver's front end: ``separate_user`` runs the whole
filter bank once per received stream and returns every user's separated
stream, and ``timing_correlate`` correlates all of them with the PCP in one
product.  The users split after that: ``synchronize_user`` is the per-user
back end (TO decision, pilot region, estimator bundle, CFO and channel),
a pure function of the user's rows, so the Q back ends are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.chebyshev import chebder, chebpts1, chebvander

from . import pilot
from .config import SystemConfig
from .errors import ConfigError, EstimationError

GOLDEN_RATIO_CONJ = (np.sqrt(5.0) - 1.0) / 2.0
#: iteration cap of the Newton CFO refinement (bisection alone needs
#: log2(2 * cfo_step / (NEWTON_STEP_FRAC * cfo_tol)), 16 at the defaults)
NEWTON_MAX_ITER = 40
#: the refinement stops at a step below this share of cfo_tol
NEWTON_STEP_FRAC = 0.01
#: lags per block of the timing correlation's Toeplitz product
TIMING_BLOCK = 16


# ---------------------------------------------------------------------------
# filter-bank user separation
# ---------------------------------------------------------------------------

def doppler_mask(n: int, num_users: int, user) -> np.ndarray:
    """Brickwall mask selecting user's band of floor(N/Q) Doppler bins, the
    bins k with k // floor(N/Q) == user; an array of users broadcasts
    (users of shape (Q, 1) give the (Q, N) masks of the whole bank)."""
    return np.arange(n) // (n // num_users) == np.asarray(user)


def separate_user(stream: np.ndarray, num_users: int, m: int, n: int) -> np.ndarray:
    """The filter bank: unit-gain brickwall filters isolating every user's
    Doppler band, returned as the (Q, M*N) separated streams in serialized
    order, row q for user q.

    Implemented as one DFT over the time slots of the (N, M) slot-major
    view of the stream, Q masks, and one batched IDFT; each filter is
    equivalent to a circulant filter along the time axis.  The name stays
    singular because the benchmark's tracer wraps ``separate_user`` by name,
    until stage timing moves into the library (ROADMAP Direction 2).
    """
    if num_users > n:
        raise ConfigError(f"num_users={num_users} exceeds the Doppler axis n={n}")
    stream = np.asarray(stream)
    if stream.size != m * n:
        raise ConfigError(f"expected {m * n} samples, got {stream.size}")
    spectrum = np.fft.fft(stream.reshape(n, m), axis=0)
    masks = doppler_mask(n, num_users, np.arange(num_users)[:, np.newaxis])
    bank = np.where(masks[:, :, np.newaxis], spectrum, 0.0)
    return np.fft.ifft(bank, axis=1).reshape(num_users, m * n)


# ---------------------------------------------------------------------------
# timing-offset estimation
# ---------------------------------------------------------------------------

@dataclass
class TimingMetric:
    """Per-delay-bin correlation statistics of one user, or of every user
    with a leading user axis.

    ``curve`` is the time average of the per-slot correlation magnitudes, in
    the reporting index convention in which the estimate is recovered as
    (l + cp_len - anchor - 1) mod M.
    """

    curve: np.ndarray   # (M,), or (Q, M) for the bank
    cp_len: int
    anchor: int

    def user(self, q: int) -> "TimingMetric":
        """User q's metric out of the bank's."""
        return TimingMetric(curve=self.curve[q], cp_len=self.cp_len, anchor=self.anchor)


@dataclass
class ToEstimate:
    first_peak: int            # threshold peak set, earliest offset
    max_peak: int              # argmax variant


def pcp_toeplitz(pcp: np.ndarray, block: int) -> np.ndarray:
    """(block + span - 1, block) banded Toeplitz matrix T[j, i] =
    conj(pcp[j - i]) for 0 <= j - i < span (span = pcp.size), else 0: a row
    of window samples w[j] = s[t + j] times T gives the ``block``
    correlation lags t + i, i < block."""
    taps = np.concatenate([np.zeros(block - 1), np.conj(pcp), np.zeros(block - 1)])
    return sliding_window_view(taps, block)[:, ::-1]


def timing_correlate(separated: np.ndarray, pcp: np.ndarray,
                     placement: pilot.PilotPlacement, cp_len: int) -> TimingMetric:
    """Correlate every slot of the filtered streams with the PCP.

    ``separated`` is one M*N-sample stream or the (Q, M*N) bank of
    ``separate_user``; the metric's curve is (M,) or (Q, M) to match.

    Assumes that the user's pilot occupies a single Doppler column k_q (as
    ``pilot.pilot_frame`` places it): the pilot block of time slot n in the
    delay-time grid is then pcp * exp(j 2 pi k_q n / N) / sqrt(N), one PCP
    times a phase common to the slot, and the phase drops out of the
    magnitude.  The correlation of slot n at lag d is therefore
    |sum_z s[n*M + delay_lo + d + z] conj(pcp[z])| / sqrt(N), and the
    M*N lags are one circular correlation of the serialized stream with the
    2*zc_len - 1 PCP taps.  The window follows the serialized sample order
    instead of wrapping inside one slot: the delayed pilot of slot n spills
    past the slot boundary into the next slot's head (it keeps the slot-n
    Doppler phase there), which keeps the full pilot coherent at every
    candidate lag; the frame CP makes the last slot wrap to the first.

    The correlation is a blocked Toeplitz product: each block of
    TIMING_BLOCK lags reads one window of TIMING_BLOCK + span - 1 samples,
    and the windows of every user make one (Q * ceil(M*N / TIMING_BLOCK),
    TIMING_BLOCK + span - 1) @ ``pcp_toeplitz`` product.  The stream is
    zero-padded to whole blocks and the surplus lags are dropped.
    """
    m, n = placement.m, placement.n
    separated = np.asarray(separated)
    if separated.shape[-1] != m * n:
        raise ConfigError(f"expected {m * n} samples, got {separated.shape[-1]}")
    lo, span, block = placement.delay_lo, pcp.size, TIMING_BLOCK
    blocks = -(-m * n // block)
    lead = separated.shape[:-1]
    stream = np.zeros(lead + (blocks * block + span - 1,), dtype=complex)
    stream[..., :m * n - lo] = separated[..., lo:]
    stream[..., m * n - lo:m * n + span - 1] = separated[..., :lo + span - 1]
    windows = sliding_window_view(stream, block + span - 1, axis=-1)[..., ::block, :]
    rows = np.ascontiguousarray(windows).reshape(-1, block + span - 1)
    corr = (rows @ pcp_toeplitz(pcp, block)).reshape(lead + (-1,))[..., :m * n]  # lag n*M + d
    curve = np.abs(corr).reshape(lead + (n, m)).mean(axis=-2) / (m * math.sqrt(n))
    shift = (cp_len - placement.anchor - 1) % m           # lag d peaks at the offset
    return TimingMetric(curve=np.roll(curve, -shift, axis=-1), cp_len=cp_len,
                        anchor=placement.anchor)


def estimate_to(metric: TimingMetric, threshold: float) -> ToEstimate:
    """Threshold peak grouping and first-peak selection.

    Metric indices map to offset candidates through
    (l + cp_len - anchor - 1) mod M; the first peak is the smallest candidate
    in the threshold set, which favors the earliest channel tap over the
    strongest one.
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"threshold={threshold} outside (0, 1]")
    curve = metric.curve
    m = curve.size
    if m == 0:
        raise EstimationError("empty timing metric")
    peak_set = np.flatnonzero(curve >= threshold * curve.max())
    offsets = (peak_set + metric.cp_len - metric.anchor - 1) % m
    max_peak = (int(np.argmax(curve)) + metric.cp_len - metric.anchor - 1) % m
    return ToEstimate(first_peak=int(offsets.min()), max_peak=int(max_peak))


# ---------------------------------------------------------------------------
# pilot-region extraction
# ---------------------------------------------------------------------------

@dataclass
class PilotRegion:
    """Received pilot-region samples and their absolute sample indices.

    ``samples[n, j]`` is the filtered receive sample at delay row
    anchor + theta_hat + j of time slot n (``PilotPlacement.region_index``).
    ``kappa`` holds the matching absolute post-CP-removal sample indices used
    for every phase and basis evaluation.
    """

    samples: np.ndarray   # (N, L_p) complex
    kappa: np.ndarray     # (N, L_p) int


def extract_pilot_region(filtered: np.ndarray, theta_hat: int,
                         placement: pilot.PilotPlacement, cp_len: int) -> PilotRegion:
    """Stack the L_p pilot samples of every time slot after the PCP prefix."""
    m, n = placement.m, placement.n
    filtered = np.asarray(filtered)
    if filtered.size != m * n:
        raise ConfigError(f"expected {m * n} samples, got {filtered.size}")
    idx = placement.region_index(theta_hat)
    return PilotRegion(samples=filtered[idx], kappa=cp_len + idx)


# ---------------------------------------------------------------------------
# Chebyshev basis expansion
# ---------------------------------------------------------------------------

def build_bem_basis(beta: int, kappa: np.ndarray, n_s: int) -> np.ndarray:
    """(*kappa.shape, beta) first-kind Chebyshev values T_g(kprime) at the
    normalized instants kprime = (2*kappa - N_s + 1)/(N_s - 1)."""
    if beta < 1:
        raise ConfigError(f"bem order {beta} must be >= 1")
    kprime = (2.0 * np.asarray(kappa, dtype=float) - n_s + 1.0) / (n_s - 1.0)
    return chebvander(kprime, beta - 1)


def regressor_matrix(sbar: np.ndarray, bem: np.ndarray) -> np.ndarray:
    """The (N*L_p, L_p*beta) LS regressor G of the pilot region.

    ``sbar[n, j]`` is the transmitted pilot sample at region position (n, j).
    Column (l, g) carries the l-shifted pilot (the circular shift of each
    slot's template realizes the tap convolution) times basis order g, so
    ``G @ c`` reproduces the convolved pilot for tap trajectories
    h[l, .] = sum_g c[l*beta+g] T_g(.).
    """
    n_slots, lp = sbar.shape
    if bem.shape[:2] != (n_slots, lp):
        raise ConfigError("basis grid does not match the pilot template shape")
    j = np.arange(lp)
    shifted = sbar[:, (j[:, None] - j[None, :]) % lp]          # (N, j, l)
    g4 = shifted[:, :, :, None] * bem[:, :, None, :]           # (N, j, l, g)
    return g4.reshape(n_slots * lp, lp * bem.shape[-1])


@dataclass
class BemRegressor:
    """Pivoted QR factors of the regressor G (``regressor_matrix``), computed
    once per geometry.  The CFO cost (projection norm) and the LS solve both
    read only the conjugated orthonormal factor, R and the pivots."""

    _qconj: np.ndarray = field(repr=False)
    _r: np.ndarray = field(repr=False)
    _piv: np.ndarray = field(repr=False)

    def project(self, z_batch: np.ndarray) -> np.ndarray:
        """The projections w = Q^H z of the rows z of z_batch, as rows."""
        return z_batch @ self._qconj

    def cost_many(self, z_batch: np.ndarray, interp: np.ndarray | None = None) -> np.ndarray:
        """Squared norm of the projection of each row of z_batch onto the
        range of G.  With ``interp``, the squared norms of the rows of
        interp @ W instead, W being those projections: as interp is real,
        row i is the quadratic form interp_i Re(W W^H) interp_i^T of the
        small (r, r) Gram matrix."""
        w = self.project(z_batch)
        if interp is None:
            return np.sum(np.abs(w) ** 2, axis=1)
        parts = w.view(np.float64)            # [Re, Im] interleaved: Re(W W^H) = parts parts^T
        return np.sum((interp @ (parts @ parts.T)) * interp, axis=1)

    def solve(self, w: np.ndarray) -> np.ndarray:
        """LS coefficients R^-1 w, un-pivoted, from a projection w = Q^H z."""
        sol = scipy.linalg.solve_triangular(self._r, w, check_finite=False)
        c = np.empty_like(sol)
        c[self._piv] = sol
        return c

    def coeffs(self, z: np.ndarray) -> np.ndarray:
        """LS coefficient solve (G^H G)^-1 G^H z."""
        return self.solve(self._qconj.T @ z)


def build_bem_regressor(sbar: np.ndarray, bem: np.ndarray,
                        pivot_tol: float = 1e-10) -> BemRegressor:
    """Assemble and QR-factorize the regressor from the pilot template."""
    g_mat = regressor_matrix(sbar, bem)
    n_rows, n_cols = g_mat.shape
    if n_cols > n_rows:
        raise EstimationError(
            f"BEM regressor is underdetermined: beta*L_p = {n_cols} columns "
            f"exceed N*L_p = {n_rows} rows"
        )
    q, r, piv = scipy.linalg.qr(g_mat, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag >= pivot_tol * diag[0])) if diag[0] > 0 else 0
    if rank < n_cols:
        raise EstimationError(
            f"BEM regressor rank-deficient: rank {rank} < beta*L_p = {n_cols} "
            f"(N*L_p = {n_rows}); the pilot does not excite every coefficient"
        )
    return BemRegressor(_qconj=np.conj(q), _r=r, _piv=piv)


# ---------------------------------------------------------------------------
# ML CFO estimation and channel reconstruction
# ---------------------------------------------------------------------------

def cfo_phase(kappa: np.ndarray, eps: float, n_s: int) -> np.ndarray:
    """Diagonal of the pilot-region CFO rotation exp(j 2 pi eps kappa / N_s)."""
    return np.exp(2j * np.pi * eps * np.asarray(kappa, dtype=float) / n_s)


def cfo_cost(rbar: np.ndarray, regressor: BemRegressor, kappa: np.ndarray,
             eps: float, n_s: int) -> float:
    """Projection cost g(eps) = || proj_G( Phi^H(eps) rbar ) ||^2 (real, >= 0)."""
    z = np.conj(cfo_phase(kappa.ravel(), eps, n_s)) * np.asarray(rbar).ravel()
    return float(regressor.cost_many(z[np.newaxis, :])[0])


def golden_section_max(fun, lo: float, hi: float, tol: float):
    """Golden-section maximization on [lo, hi] to an interval of width tol."""
    a, b = float(lo), float(hi)
    c = b - GOLDEN_RATIO_CONJ * (b - a)
    d = a + GOLDEN_RATIO_CONJ * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN_RATIO_CONJ * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN_RATIO_CONJ * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def newton_max(fun, x: float, lo: float, hi: float, tol: float):
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
    for _ in range(NEWTON_MAX_ITER):
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
        if abs(x_next - x) < NEWTON_STEP_FRAC * tol:
            break
        x = x_next
    return x_best, f_best


@dataclass
class CfoEstimate:
    epsilon_hat: float
    grid: np.ndarray         # coarse search points
    cost_curve: np.ndarray   # cost at each grid point
    c_hat: np.ndarray        # (L_p * beta,) basis coefficients
    h_hat: np.ndarray        # (N, L_p taps, L_p samples) reconstructed taps


def cfo_grid(cfo_range: float, cfo_step: float) -> np.ndarray:
    """Symmetric whole multiples of cfo_step, including 0, within +-cfo_range."""
    if cfo_range <= 0 or cfo_step <= 0:
        raise ConfigError("cfo_range and cfo_step must be > 0")
    ratio = cfo_range / cfo_step
    k = round(ratio)
    whole = math.isclose(ratio, k, rel_tol=1e-9)
    if not whole:
        k = math.floor(ratio)
    grid = cfo_step * np.arange(-k, k + 1, dtype=float)
    if whole:
        # k * cfo_step may miss cfo_range by an ulp either way
        grid[0], grid[-1] = -cfo_range, cfo_range
    return grid


def scan_node_count(cfo_range: float, kappa: np.ndarray, n_s: int) -> int:
    """Chebyshev nodes r of the coarse CFO scan over +-cfo_range.

    About the centre of the region, the rotation of sample kappa is
    exp(-j a x) with x = eps / cfo_range in [-1, 1] and
    a = 2 pi cfo_range (kappa_max - kappa_min) / (2 N_s).  Interpolating it
    at r first-kind nodes leaves a truncation error of at most
    2 (a/2)**r / r!; r is the smallest count with (a/2)**r / r! < 2**-52,
    plus one, which puts that error below 2**-52 (29 or 30 at the default
    geometry, a of about 6).
    """
    a = math.pi * cfo_range * (np.max(kappa) - np.min(kappa)) / n_s
    r, term = 0, 1.0
    while term >= 2.0 ** -52:
        r += 1
        term *= a / (2 * r)
    return r + 1


def cfo_scan(grid: np.ndarray, cfo_range: float, kappa: np.ndarray, centre: float,
             n_s: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(node_phases, interp) of the coarse CFO scan over ``grid``.

    ``node_phases`` (r, N*L_p) holds the conj-rotations
    exp(-j 2 pi nu (kappa - centre) / N_s) at r = ``scan_node_count``
    first-kind Chebyshev nodes nu of +-cfo_range, taken about the centre
    of the region: a phase common to every kappa leaves the cost
    unchanged, and centring halves the bandwidth.  ``interp`` (G, r) maps
    values at the nodes to the Chebyshev interpolant at the grid points.
    When r >= G the nodes are the grid itself, uncentred, and ``interp`` is
    None, so the scan is the dense one.
    """
    kflat = np.asarray(kappa, dtype=float).ravel()
    r = scan_node_count(cfo_range, kflat, n_s)
    if r >= grid.size:
        nodes, centre, interp = grid, 0.0, None
    else:
        nodes = cfo_range * chebpts1(r)
        interp = chebvander(grid / cfo_range, r - 1) @ np.linalg.inv(
            chebvander(nodes / cfo_range, r - 1))
    node_phases = np.exp(-2j * np.pi * np.outer(nodes, kflat - centre) / n_s)
    return node_phases, interp


def cfo_local(cfo_step: float, kappa: np.ndarray, centre: float,
              n_s: int) -> tuple[np.ndarray, np.ndarray]:
    """(local_phases, local_ops) of the CFO refinement about a grid point.

    ``local_phases`` (r_loc, N*L_p) holds the conj-rotations
    exp(-j 2 pi cfo_step x (kappa - centre) / N_s) at the
    r_loc = scan_node_count(cfo_step, kappa, N_s) first-kind Chebyshev
    nodes x of [-1, 1] (9 at the default geometry).  Applied to the region
    rotated to a grid point eps_c, they give the projections at the offsets
    eps_c + cfo_step x, exact to 2**-52 like the coarse scan's.
    ``local_ops`` (3, r_loc, r_loc) maps such values at the nodes to the
    Chebyshev coefficients, in x, of the interpolant of the projection and
    of its first and second derivatives in eps.
    """
    kflat = np.asarray(kappa, dtype=float).ravel()
    r = scan_node_count(cfo_step, kflat, n_s)
    nodes = chebpts1(r)
    to_coeffs = np.linalg.inv(chebvander(nodes, r - 1))
    ops = [to_coeffs]
    for order in (1, 2):
        deriv = chebder(np.eye(r), m=order) / cfo_step ** order
        ops.append(np.vstack([deriv, np.zeros((r - deriv.shape[0], r))]) @ to_coeffs)
    local_phases = np.exp(-2j * np.pi * cfo_step * np.outer(nodes, kflat - centre) / n_s)
    return local_phases, np.stack(ops)


def estimate_cfo(region: PilotRegion, bundle: EstimatorBundle,
                 cfg: SystemConfig) -> CfoEstimate:
    """Coarse scan of the projection cost over the bundle's grid, Newton
    refinement on [best grid point +- cfo_step] within +-cfo_range (stopping
    at steps below NEWTON_STEP_FRAC * cfo_tol), then the LS coefficient solve
    at the winning offset.

    The scan projects the region rotated to the bundle's r Chebyshev nodes,
    one (r, N*L_p) @ (N*L_p, L_p*beta) product W, and interpolates the
    costs to the G grid points as the real quadratic form
    interp Re(W W^H) interp^T (``cfo_scan``).  Each interpolated rotation is
    within 2**-52 of the exact one (``scan_node_count``), so the cost curve
    differs from the dense scan by rounding only, amplified by the Lebesgue
    constant of the nodes, 1 + (2/pi) ln r, about 3.

    The refinement runs on a local Chebyshev interpolant of the projection
    w(eps) = Q^H Phi^H(eps) rbar over [eps_c +- cfo_step], eps_c the best
    grid point: the region rotated to eps_c and to the bundle's r_loc local
    nodes (``cfo_local``; r_loc = scan_node_count(cfo_step, kappa, N_s), 9 at
    the default geometry) is projected in one (r_loc, N*L_p) product, and
    each Newton iterate reads g = ||w||^2, g' = 2 Re(w^H w') and
    g'' = 2 (||w'||^2 + Re(w^H w'')) from the (r_loc, L_p*beta)
    Chebyshev coefficients of w, w' and w''.  The LS solve reuses w at the
    estimate (``BemRegressor.solve``).
    """
    if cfg.cfo_tol <= 0:
        raise ConfigError("cfo_tol must be > 0")
    grid, regressor = bundle.grid, bundle.regressor
    rflat = region.samples.ravel()
    costs = regressor.cost_many(bundle.node_phases * rflat[np.newaxis, :], bundle.interp)
    best = int(np.argmax(costs))
    eps_c = float(grid[best])
    offset = region.kappa.ravel() - bundle.centre
    z = np.exp(-2j * np.pi * eps_c * offset / cfg.n_s) * rflat
    # [Re, Im] interleaved, so that the real operators act in real arithmetic
    values = regressor.project(bundle.local_phases * z).view(np.float64)
    coeffs = bundle.local_ops @ values          # (3, r_loc, 2 L_p beta)
    orders = np.arange(coeffs.shape[1])

    def local_w(eps):
        """w, w' and w'' at eps, each times exp(j 2 pi eps centre / N_s)."""
        x = min(max((eps - eps_c) / cfg.cfo_step, -1.0), 1.0)
        # T_k(x) = cos(k acos x): one call, where chebvander loops per order
        return (np.cos(orders * math.acos(x)) @ coeffs).view(np.complex128)

    def cost_derivatives(eps):
        w0, w1, w2 = local_w(eps)
        return (float(np.vdot(w0, w0).real), 2.0 * float(np.vdot(w0, w1).real),
                2.0 * float(np.vdot(w1, w1).real + np.vdot(w0, w2).real))

    lo = max(eps_c - cfg.cfo_step, -cfg.cfo_range)
    hi = min(eps_c + cfg.cfo_step, cfg.cfo_range)
    x_ref, f_ref = newton_max(cost_derivatives, eps_c, lo, hi, cfg.cfo_tol)
    # keep the exact grid point when refinement cannot improve on it
    eps_hat = eps_c if costs[best] >= f_ref else float(x_ref)
    w = local_w(eps_hat)[0] * np.exp(-2j * np.pi * eps_hat * bundle.centre / cfg.n_s)
    c_hat = regressor.solve(w)
    return CfoEstimate(epsilon_hat=eps_hat, grid=grid, cost_curve=costs,
                       c_hat=c_hat, h_hat=reconstruct_channel(c_hat, bundle.bem))


def reconstruct_channel(c_hat: np.ndarray, bem: np.ndarray) -> np.ndarray:
    """Tap trajectories over the pilot region from basis coefficients.

    Returns h[n, l, j] = sum_g T_g(kprime[n, j]) c[l*beta + g] for taps
    l = 0..L_p-1 and every time slot n, as one (L_p, beta) @ (N, beta, L_p)
    matmul.
    """
    _, lp, beta = bem.shape
    return np.asarray(c_hat).reshape(lp, beta) @ bem.transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# per-user pipeline
# ---------------------------------------------------------------------------

@dataclass
class EstimatorBundle:
    """Receive-side quantities fixed by (config, user, theta, beta): the
    basis, the factorized regressor, the coarse CFO grid, the scan of that
    grid through r Chebyshev nodes (``cfo_scan``) and the local interpolant
    of the refinement through r_loc nodes (``cfo_local``).  Both node counts
    come from the geometry by one rule, ``scan_node_count``: the smallest
    count with (a/2)**r / r! < 2**-52, plus one, for the bandwidth
    a = 2 pi h (kappa_max - kappa_min) / (2 N_s) of the rotations over an
    interval of half-width h, so every interpolated rotation is exact to
    2**-52.  The scan takes h = cfo_range (r = 29 or 30 at the default
    geometry; when r >= G the nodes are the grid and there is no
    interpolation matrix), the refinement h = cfo_step (r_loc = 9).
    Rotations are taken about the region centre.  Cached across trials
    because none of them depends on the received samples."""

    bem: np.ndarray            # (N, L_p, beta) basis values
    regressor: BemRegressor
    grid: np.ndarray           # (G,) coarse CFO search points
    node_phases: np.ndarray    # (r, N*L_p)
    interp: np.ndarray | None  # (G, r), None when the nodes are the grid
    centre: float              # kappa of the region centre
    local_phases: np.ndarray   # (r_loc, N*L_p)
    local_ops: np.ndarray      # (3, r_loc, r_loc)


_BUNDLE_CACHE: dict = {}
_BUNDLE_CACHE_MAX = 256


def estimator_bundle(cfg: SystemConfig, placement: pilot.PilotPlacement,
                     pcp: np.ndarray, user: int, theta: int,
                     beta: int | None = None) -> EstimatorBundle:
    beta = cfg.beta if beta is None else beta
    key = (cfg.m, cfg.n, cfg.num_users, cfg.cp_len, cfg.zc_len, cfg.zc_root,
           cfg.pilot_power_db, cfg.anchor, cfg.offset,
           cfg.cfo_range, cfg.cfo_step, beta, user, int(theta))
    bundle = _BUNDLE_CACHE.get(key)
    if bundle is not None:
        return bundle
    if len(_BUNDLE_CACHE) >= _BUNDLE_CACHE_MAX:
        _BUNDLE_CACHE.clear()
    kappa = cfg.cp_len + placement.region_index(theta)
    bem = build_bem_basis(beta, kappa, cfg.n_s)
    regressor = build_bem_regressor(pilot.pilot_region_ref(placement, pcp, user), bem)
    grid = cfo_grid(cfg.cfo_range, cfg.cfo_step)
    centre = 0.5 * float(kappa.max() + kappa.min())
    node_phases, interp = cfo_scan(grid, cfg.cfo_range, kappa, centre, cfg.n_s)
    local_phases, local_ops = cfo_local(cfg.cfo_step, kappa, centre, cfg.n_s)
    bundle = EstimatorBundle(bem=bem, regressor=regressor, grid=grid,
                             node_phases=node_phases, interp=interp, centre=centre,
                             local_phases=local_phases, local_ops=local_ops)
    _BUNDLE_CACHE[key] = bundle
    return bundle


@dataclass
class UserSyncResult:
    to_estimate: ToEstimate
    theta_used: int
    metric: TimingMetric
    region: PilotRegion
    cfo: CfoEstimate


def synchronize_user(separated: np.ndarray, metric: TimingMetric, user: int,
                     cfg: SystemConfig, placement: pilot.PilotPlacement, pcp: np.ndarray,
                     theta_override: int | None = None) -> UserSyncResult:
    """Per-user back end of the receiver: user ``user``'s TO decision, pilot
    region, estimator bundle and CFO, read from its row of the separated
    streams (``separate_user``) and of the timing metric
    (``timing_correlate``)."""
    metric = metric.user(user)
    to_est = estimate_to(metric, cfg.threshold)
    theta = int(theta_override) if theta_override is not None else to_est.first_peak
    region = extract_pilot_region(separated[user], theta, placement, cfg.cp_len)
    bundle = estimator_bundle(cfg, placement, pcp, user, theta)
    cfo = estimate_cfo(region, bundle, cfg)
    return UserSyncResult(to_estimate=to_est, theta_used=theta, metric=metric,
                          region=region, cfo=cfo)
