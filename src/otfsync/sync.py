"""Receiver-side estimation: filter-bank user separation, correlation-based
timing-offset estimation, and ML carrier-frequency-offset plus channel
estimation on a Chebyshev basis expansion.

The receiver is linear in the received stream up to two steps: the
magnitude of the timing correlation and the quadratic cost of the CFO
search.  Its front end (``front_end``) reads the received streams of a
draw, and the points it serves are its lanes (``FrontEnd``).  A lane is a
(stream, amplitude) pair: a stream is a stack of K rows, and the lane reads
sum_k a^k row_k at its noise amplitude a (``at_amplitude``).  The draw
makes the streams and the lane table (``harness.draw_trial``): the points
of an SNR sweep share one stream of K = 2 rows, the signal and the unit
noise, and differ in a alone, and every other lane has a K = 1 stream of
its own that already holds its noise and its CFO, read at a = 0.  The front
end runs one loop over the streams: ``separate_user`` runs the whole filter
bank on every row of a stream at once, ``timing_correlate`` correlates
every separated row with the PCP in one product, and each lane of the
stream takes its timing curves from that correlation at its a.  The front
end keeps the curves and no correlation, and the TO decisions of every
(lane, user) are one ``estimate_to`` call.  The users split after that:
``synchronize_user`` is the per-user back end (pilot region, estimator
bundle, CFO and channel) at one theta_hat, and the Q back ends are
independent.  Each user's pilot region and CFO projection are polynomials
in a too, so one back end call serves every lane that reaches that
theta_hat, one estimate and one region at the lane's a per lane, whether
the lanes share a stream or each have their own (``estimate_cfo``);
``harness.score_draw`` groups the lanes by theta_hat.

The pilot region is fitted one delay row at a time.  User q's pilot sits in
Doppler column k_q, so its transmitted region sample (n, j) is
phi_q[n] p[j] with the slot phase phi_q[n] = exp(j 2 pi k_q n / N)
(``pilot.slot_phase``) and the pilot row p (``pilot.region_pilot``).  The
phase is common to the slot and commutes with the CFO rotation and the
taps, so every user's region, de-rotated by its own phase (``derotate``),
fits the Doppler-free template 1 (x) p, and one bundle per (geometry,
theta_hat, beta) serves all users.  The PCP makes each slot's tap
convolution circular over the L_p region rows, so with the row-j Chebyshev
matrix B_j[n, g] = T_g(kprime[n, j]) the model of row j is

    z[:, j] = B_j d_j,   d_j[g] = sum_l C[j, l] c[l, g],   C[j, l] = p[(j - l) mod L_p],

for the tap coefficients c[l, g] of h[l, .] = sum_g c[l, g] T_g(.).  A
Zadoff-Chu row has a flat spectrum: the eigenvalues FFT(p) of the circulant
C all have modulus |p[0]| sqrt(L_p), so C is invertible with condition
number 1, and the regressor's range is the direct sum of the row ranges of
B_j.  With the QR factors B_j = Q_j R_j (``build_bem_regressor``, real
because B_j is) the projection of a region z is the L_p*beta row sums

    w[j, k] = sum_n Q_j[n, k] z[n, j],

its cost is ||w||^2 = sum_j ||Q_j^T z[:, j]||^2, and the LS coefficients
are c = (C^-1 (x) I_beta) [R_j^-1 w[j]] = E w (``BemRegressor``).

Each user's CFO search reads one projection: the coarse scan projects the
region rotated to r Chebyshev nodes of +-cfo_range, whose rotation factors
into a slot part and a row part (``cfo_scan``) that the row sums carry.
That projection is the Chebyshev interpolant of w(eps), and ||w||^2 is a
scalar Chebyshev polynomial of degree 2r - 2 (``cost_polynomial``) on
which the grid costs and the Newton refinement run; the LS solve reads w
at the estimate (``estimate_cfo``).  With the region signal + a noise, w is
w_s + a w_n and the cost ||w_s||^2 + a 2 Re(w_n^H w_s) + a^2 ||w_n||^2, so
the projection is made once for every a (``BemRegressor.cost_many``), and
the scan, the derivative operators and the LS solve of all the lanes are
one stacked product each, one slice per stream, so that each lane's
arithmetic is that of its stream searched alone; only the Newton refinement
runs lane by lane.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.chebyshev import chebder, chebpts1, chebvander

from . import modem, pilot
from .config import SystemConfig
from .errors import ConfigError, EstimationError

#: read by ``golden_section_max`` alone, kept with it (TRACED in perfbench/tracing.py)
GOLDEN_RATIO_CONJ = (np.sqrt(5.0) - 1.0) / 2.0
#: iteration cap of the Newton CFO refinement (bisection alone needs
#: log2(2 * cfo_step / (NEWTON_STEP_FRAC * cfo_tol)), 16 at the defaults)
NEWTON_MAX_ITER = 40
#: the refinement stops at a step below this share of cfo_tol
NEWTON_STEP_FRAC = 0.01
#: lags per block of the timing correlation's Toeplitz product
TIMING_BLOCK = 16
#: smallest eigenvalue modulus of the pilot circulant, and smallest |R_j[g, g]|
#: of the row bases, as a share of the largest, that counts toward the
#: regressor's rank (``build_bem_regressor``)
PIVOT_TOL = 1e-10


# ---------------------------------------------------------------------------
# filter-bank user separation
# ---------------------------------------------------------------------------

def doppler_mask(cfg: SystemConfig, user) -> np.ndarray:
    """Brickwall mask selecting user's band of ``cfg.band`` Doppler bins, the
    bins k with k // band == user; an array of users broadcasts (users of
    shape (Q, 1) give the (Q, N) masks of the whole bank)."""
    return np.arange(cfg.n) // cfg.band == np.asarray(user)


def separate_user(stream: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """The filter bank: unit-gain brickwall filters isolating every user's
    Doppler band, returned as the (Q, M*N) separated streams in serialized
    order, row q for user q; a (..., M*N) stack of streams gives
    (..., Q, M*N).

    Implemented as one DFT over the time slots of the (N, M) slot-major
    view of each stream, Q masks, and one batched IDFT; each filter is
    equivalent to a circulant filter along the time axis.  The name stays
    singular because the benchmark's tracer wraps ``separate_user`` by name,
    until stage timing moves into the library (ROADMAP Direction 4).
    """
    m, n, num_users = cfg.m, cfg.n, cfg.num_users
    stream = np.asarray(stream)
    if stream.shape[-1] != m * n:
        raise ConfigError(f"expected {m * n} samples, got {stream.shape[-1]}")
    lead = stream.shape[:-1]
    spectrum = np.fft.fft(stream.reshape(lead + (n, m)), axis=-2)
    masks = doppler_mask(cfg, np.arange(num_users)[:, np.newaxis])
    bank = np.where(masks[:, :, np.newaxis], spectrum[..., np.newaxis, :, :], 0.0)
    return np.fft.ifft(bank, axis=-2).reshape(lead + (num_users, m * n))


# ---------------------------------------------------------------------------
# timing-offset estimation
# ---------------------------------------------------------------------------

@dataclass
class ToEstimate:
    first_peak: int | np.ndarray   # threshold peak set, earliest offset
    max_peak: int | np.ndarray     # argmax variant


def pcp_toeplitz(pcp: np.ndarray, block: int) -> np.ndarray:
    """(block + span - 1, block) banded Toeplitz matrix T[j, i] =
    conj(pcp[j - i]) for 0 <= j - i < span (span = pcp.size), else 0: a row
    of window samples w[j] = s[t + j] times T gives the ``block``
    correlation lags t + i, i < block.  Built once per (PCP, block),
    C-contiguous and read-only."""
    return _pcp_toeplitz(np.asarray(pcp, dtype=np.complex128).tobytes(), block)


@functools.lru_cache(maxsize=32)
def _pcp_toeplitz(pcp: bytes, block: int) -> np.ndarray:
    taps = np.concatenate([np.zeros(block - 1), np.conj(np.frombuffer(pcp, np.complex128)),
                           np.zeros(block - 1)])
    toeplitz = np.ascontiguousarray(sliding_window_view(taps, block)[:, ::-1])
    toeplitz.flags.writeable = False
    return toeplitz


def timing_correlate(separated: np.ndarray, pcp: np.ndarray,
                     cfg: SystemConfig) -> np.ndarray:
    """Correlate every slot of the filtered streams with the PCP.

    ``separated`` is one M*N-sample stream or a (..., M*N) stack of them,
    such as the (..., Q, M*N) bank of ``separate_user``; the complex lag
    correlation has the same shape, lag n*M + d at index n*M + d, and is
    linear in the stream (``timing_curve`` takes its magnitude).

    Assumes that the user's pilot occupies a single Doppler column k_q (as
    ``pilot.embed_pilots`` places it): the pilot block of time slot n in the
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
    m, n = cfg.m, cfg.n
    separated = np.asarray(separated)
    if separated.shape[-1] != m * n:
        raise ConfigError(f"expected {m * n} samples, got {separated.shape[-1]}")
    lo, span, block = cfg.delay_lo, pcp.size, TIMING_BLOCK
    blocks = -(-m * n // block)
    lead = separated.shape[:-1]
    stream = np.zeros(lead + (blocks * block + span - 1,), dtype=complex)
    stream[..., :m * n - lo] = separated[..., lo:]
    stream[..., m * n - lo:m * n + span - 1] = separated[..., :lo + span - 1]
    windows = sliding_window_view(stream, block + span - 1, axis=-1)[..., ::block, :]
    rows = np.ascontiguousarray(windows).reshape(-1, block + span - 1)
    return (rows @ pcp_toeplitz(pcp, block)).reshape(lead + (-1,))[..., :m * n]


def timing_curve(corr: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """The (..., M) timing curves of (..., M*N) lag correlations
    (``timing_correlate``): entry l of a curve is the time average of the
    per-slot correlation magnitudes at the offset candidate
    (l + cp_len - anchor - 1) mod M (``estimate_to``)."""
    m, n = cfg.m, cfg.n
    # sum / n is the arithmetic of ``mean``, and the slice pair that of
    # np.roll(curve, -shift), without their overhead, which every user of
    # every point pays
    curve = np.abs(corr).reshape(corr.shape[:-1] + (n, m)).sum(axis=-2) / n / (m * math.sqrt(n))
    shift = (cfg.cp_len - cfg.anchor - 1) % m           # lag d peaks at the offset
    return np.concatenate((curve[..., shift:], curve[..., :shift]), axis=-1)


def estimate_to(curves: np.ndarray, cfg: SystemConfig) -> ToEstimate:
    """Threshold peak grouping and first-peak selection on a (..., M) stack
    of timing curves (``timing_curve``), at ``cfg.threshold``; the fields of
    the result are (...) integer arrays, one decision per curve.

    Curve indices map to offset candidates through
    (l + cp_len - anchor - 1) mod M; the first peak is the smallest candidate
    in the threshold set, which favors the earliest channel tap over the
    strongest one.
    """
    m = curves.shape[-1]
    if m == 0:
        raise EstimationError("empty timing metric")
    offsets = (np.arange(m) + cfg.cp_len - cfg.anchor - 1) % m
    peak_set = curves >= cfg.threshold * curves.max(axis=-1, keepdims=True)
    return ToEstimate(first_peak=np.where(peak_set, offsets, m).min(axis=-1),
                      max_peak=offsets[np.argmax(curves, axis=-1)])


# ---------------------------------------------------------------------------
# pilot-region extraction
# ---------------------------------------------------------------------------

def extract_pilot_region(filtered: np.ndarray, theta_hat: int,
                         cfg: SystemConfig) -> np.ndarray:
    """The (N, L_p) pilot region of a filtered (M*N,) stream at timing offset
    ``theta_hat``: the L_p samples of every time slot after the PCP prefix
    (``pilot.region_index``); a (..., M*N) stack gives (..., N, L_p)."""
    filtered = np.asarray(filtered)
    if filtered.shape[-1] != cfg.m * cfg.n:
        raise ConfigError(f"expected {cfg.m * cfg.n} samples, got {filtered.shape[-1]}")
    return filtered[..., pilot.region_index(cfg, theta_hat)]


def derotate(samples: np.ndarray, cfg: SystemConfig, user: int) -> np.ndarray:
    """User ``user``'s (..., N, L_p) region in the frame of the Doppler-free
    template 1 (x) p, of the same shape: slot n times
    conj(``pilot.slot_phase``[n]).  The phase is common to the slot and
    commutes with the CFO rotation and the BEM taps, so the de-rotated
    region has the same CFO and channel as the received one."""
    phase = np.conj(pilot.slot_phase(cfg, user))
    return samples * phase[:, np.newaxis]


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


@dataclass
class BemRegressor:
    """The LS fit of a pilot region on the Doppler-free template 1 (x) p,
    one delay row at a time (module docstring): the real orthonormal row
    bases Q_j, whose row sums are the projections w, and the solve matrix
    E = (C^-1 (x) I_beta) blockdiag(R_j^-1) from w to the coefficients."""

    row_basis: np.ndarray = field(repr=False)   # (N, L_p, beta) Q_j[n, k] at [n, j, k]
    _solve: np.ndarray = field(repr=False)      # (L_p*beta, L_p*beta) E

    def slot_sums(self, z_batch: np.ndarray) -> np.ndarray:
        """The projections w[j, k] = sum_n Q_j[n, k] z[n, j] of the rows z of
        z_batch (each N*L_p samples in region order), as (rows, L_p*beta)."""
        n, lp, beta = self.row_basis.shape
        z = np.asarray(z_batch).reshape(-1, n, lp)
        return np.einsum("bnj,njg->bjg", z, self.row_basis).reshape(z.shape[0], lp * beta)

    def cost_many(self, node_sums: np.ndarray,
                  to_coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(gamma, C) of a CFO scan from the (..., K, r, L_p*beta) projections
        W of a region that is a polynomial sum_k a^k z_k in the noise
        amplitude a, rotated to r Chebyshev nodes: W[k] holds the values there
        of the interpolant w_k(x) of z_k, C[k] = to_coeffs @ W[k] its Chebyshev
        coefficients (``to_coeffs`` the inverse Chebyshev-Vandermonde matrix
        of the nodes), and gamma[i] (..., 2K - 1, 2r - 1) the Chebyshev
        coefficients of the a^i term of the cost ||sum_k a^k w_k(x)||^2: the
        sum over k + l = i of Re(w_l^H w_k) (``cost_polynomial``).  Leading
        axes stack regions (streams), each made as it would be alone."""
        # [Re, Im] interleaved, so that the real operator acts in real arithmetic
        coeffs = (to_coeffs @ node_sums.view(np.float64)).view(np.complex128)
        k = coeffs.shape[-3]
        gamma = np.zeros(coeffs.shape[:-3] + (2 * k - 1, 2 * coeffs.shape[-2] - 1))
        for i in range(k):
            gamma[..., 2 * i, :] += cost_polynomial(coeffs[..., i, :, :])
            for j in range(i + 1, k):
                gamma[..., i + j, :] += 2.0 * cost_polynomial(coeffs[..., i, :, :],
                                                              coeffs[..., j, :, :])
        return gamma, coeffs

    def solve(self, w: np.ndarray) -> np.ndarray:
        """LS coefficients E w from a projection w, or from each row of a
        (..., lanes, L_p*beta) stack of them."""
        return w @ self._solve.T

    def coeffs(self, z: np.ndarray) -> np.ndarray:
        """LS coefficient solve of one region z (N*L_p samples in region
        order), or of each row of a (lanes, N*L_p) stack, as one (L_p*beta,)
        or (lanes, L_p*beta) array: one solve per region, each as it would
        be alone."""
        z = np.asarray(z)
        return self.solve(self.slot_sums(z)[:, np.newaxis]).reshape(z.shape[:-1] + (-1,))


def build_bem_regressor(p: np.ndarray, bem: np.ndarray) -> BemRegressor:
    """Factorize the regressor of the template 1 (x) p on the basis ``bem``
    (N, L_p, beta) row by row: one stacked QR of the L_p row matrices B_j,
    the rank checks of R_j and of the pilot circulant C through its
    eigenvalues FFT(p), and E[(l, g), (j, k)] = C^-1[l, j] R_j^-1[g, k]."""
    p = np.asarray(p)
    n_slots, lp, beta = bem.shape
    if p.shape != (lp,):
        raise ConfigError("basis grid does not match the pilot row")
    n_rows, n_cols = n_slots * lp, lp * beta
    if n_cols > n_rows:
        raise EstimationError(
            f"BEM regressor is underdetermined: beta*L_p = {n_cols} columns "
            f"exceed N*L_p = {n_rows} rows"
        )
    # (L_p, N, beta) Q_j and (L_p, beta, beta) R_j
    q_rows, r_rows = np.linalg.qr(bem.transpose(1, 0, 2))
    eig = np.fft.fft(p)
    mod, diag = np.abs(eig), np.abs(np.diagonal(r_rows, axis1=1, axis2=2))
    rank_c = int(np.sum((mod > 0) & (mod >= PIVOT_TOL * mod.max())))
    rank_b = int(np.sum(diag >= PIVOT_TOL * diag.max()))
    if rank_c < lp or rank_b < n_cols:
        raise EstimationError(
            f"BEM regressor rank-deficient: the pilot circulant has rank {rank_c} < "
            f"L_p = {lp} or the row bases rank {rank_b} < beta*L_p = {n_cols} "
            f"(N*L_p = {n_rows}); the pilot does not excite every coefficient"
        )
    j = np.arange(lp)
    c_inv = np.fft.ifft(1.0 / eig)[(j[:, np.newaxis] - j) % lp]   # [l, j]
    solve = np.einsum("lj,jgk->lgjk", c_inv, np.linalg.inv(r_rows))
    return BemRegressor(row_basis=np.ascontiguousarray(q_rows.transpose(1, 0, 2)),
                        _solve=solve.reshape(n_cols, n_cols))


def cost_polynomial(coeffs: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """The 2r - 1 Chebyshev coefficients of g(x) = Re(v(x)^H w(x)) for
    w(x) = sum_a coeffs[a] T_a(x) and v(x) likewise from ``other``, by
    default ``coeffs`` itself, which gives g = ||w(x)||^2: with
    H = Re(C conj(D)^T) for the rows C of coeffs and D of other,
    g = sum_ab H[a, b] T_a T_b, and T_a T_b = (T_{a+b} + T_{|a-b|}) / 2.
    A (..., r, n) stack gives (..., 2r - 1), each as it would be alone."""
    parts = coeffs.view(np.float64)
    gram = parts @ (parts if other is None else other.view(np.float64)).swapaxes(-1, -2)
    r = coeffs.shape[-2]
    count = gram.size // (r * r)
    sums, diffs = _product_orders(r, count)
    gram = gram.ravel()
    size = count * (2 * r - 1)
    costs = 0.5 * (np.bincount(sums, gram, size) + np.bincount(diffs, gram, size))
    return costs.reshape(coeffs.shape[:-2] + (2 * r - 1,))


@functools.lru_cache(maxsize=32)
def _product_orders(r: int, count: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Flattened a + b and |a - b| over the (r, r) orders of ``count``
    stacked Gram matrices, matrix i offset by i (2r - 1), so that one
    bincount reduces each matrix in its own run of bins."""
    a = np.arange(r)
    offsets = (2 * r - 1) * np.arange(count)[:, np.newaxis]
    return ((a[:, None] + a).ravel() + offsets).ravel(), \
        (np.abs(a[:, None] - a).ravel() + offsets).ravel()


# ---------------------------------------------------------------------------
# ML CFO estimation and channel reconstruction
# ---------------------------------------------------------------------------

def cfo_phase(kappa: np.ndarray, eps: float, n_s: int) -> np.ndarray:
    """Diagonal of the pilot-region CFO rotation exp(j 2 pi eps kappa / N_s)."""
    return np.exp(2j * np.pi * eps * np.asarray(kappa, dtype=float) / n_s)


# no program path calls this; TRACED in perfbench/tracing.py names it, so a traced run needs it
def cfo_cost(rbar: np.ndarray, regressor: BemRegressor, kappa: np.ndarray,
             eps: float, n_s: int) -> float:
    """Projection cost g(eps) = || proj_G( Phi^H(eps) rbar ) ||^2 (real, >= 0)."""
    z = np.conj(cfo_phase(kappa.ravel(), eps, n_s)) * np.asarray(rbar).ravel()
    w = regressor.slot_sums(z)
    return float(np.vdot(w, w).real)


# no program path calls this; TRACED in perfbench/tracing.py names it, so a traced run needs it
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


@dataclass(frozen=True)
class ScanOperators:
    """The real operators of a CFO search over ``grid`` with r Chebyshev nodes
    of +-cfo_range, in x = eps / cfo_range; they depend on (r, cfo_range,
    cfo_step) only, so every bundle with that triple shares one copy
    (``scan_operators``)."""

    to_coeffs: np.ndarray     # (r, r) V^-1: node values -> Chebyshev coefficients
    grid_vander: np.ndarray   # (G, 2r - 1) T_s(grid / cfo_range)
    derivs: np.ndarray        # (2r - 1, 3 (2r - 1)) g -> [g, g', g''] in eps, rows times it


# as large as the bundle cache (``_cached_bundle``), so that the bundles it
# holds keep sharing the copy that this cache returns
@functools.lru_cache(maxsize=256)
def scan_operators(r: int, cfo_range: float, cfo_step: float) -> ScanOperators:
    """The inverse Chebyshev-Vandermonde matrix V^-1 of r first-kind nodes,
    the Chebyshev-Vandermonde matrix of degree 2r - 2 at the grid points, and
    [I, D_1 / cfo_range, D_2 / cfo_range**2]^T side by side, with D_k the
    degree-2r - 2 matrix of ``chebder``, so that a row of cost coefficients
    times ``derivs`` holds those of g, g' and g''; read-only."""
    nodes = cfo_range * chebpts1(r)
    size = 2 * r - 1
    derivs = [np.eye(size)]
    for order in (1, 2):
        deriv = chebder(np.eye(size), m=order) / cfo_range ** order
        derivs.append(np.vstack([deriv, np.zeros((order, size))]))
    ops = ScanOperators(
        to_coeffs=np.linalg.inv(chebvander(nodes / cfo_range, r - 1)),
        grid_vander=chebvander(cfo_grid(cfo_range, cfo_step) / cfo_range, size - 1),
        derivs=np.hstack([deriv.T for deriv in derivs]))
    for array in (ops.to_coeffs, ops.grid_vander, ops.derivs):
        array.flags.writeable = False
    return ops


@dataclass(frozen=True)
class CfoScan:
    """The per-region fields of the CFO search (``cfo_scan``): the node
    rotations U (r, V) over the virtual slots and v (r, L_p) over the rows,
    the row bases per virtual slot, the flat region index of each, the
    region centre and the shared ``ScanOperators``."""

    ops: ScanOperators
    slot_rot: np.ndarray            # (r, V) U: node rotation per virtual slot
    row_rot: np.ndarray             # (r, L_p) v: node rotation per row
    scan_basis: np.ndarray          # (V, L_p, beta) row basis per virtual slot
    scan_index: np.ndarray          # (V, L_p) region index per virtual slot
    centre: float                   # kappa of the region centre

    def node_sums(self, samples: np.ndarray) -> np.ndarray:
        """(..., r, L_p*beta) projections of the regions ``samples``
        (..., N, L_p) rotated to the r nodes: v[i, j] sum_s U[i, s] Y[s, j, k]."""
        lead = samples.shape[:-2]
        y = samples.reshape(lead + (-1,))[..., self.scan_index, np.newaxis] * self.scan_basis
        r, lp = self.row_rot.shape
        sums = (self.slot_rot @ y.reshape(y.shape[:-2] + (-1,))).reshape(lead + (r, lp, -1))
        sums *= self.row_rot[:, :, np.newaxis]
        return sums.reshape(lead + (r, -1))


def cfo_scan(kappa: np.ndarray, row_basis: np.ndarray, cfo_range: float, cfo_step: float,
             m: int, n_s: int) -> CfoScan:
    """The ``CfoScan`` of a region at ``kappa`` with the row bases
    ``row_basis``.

    Slot n of the region lies M samples after slot 0, except where the frame
    CP wraps it: kappa[n, j] = kappa[0, j] + s[n, j] M with the virtual slot
    s = n, or n - N for a sample that wrapped to the frame head (the tail of
    slot N - 1 at theta_hat >= 1 at the default geometry).  The rotation to
    node nu_i about the centre kappa_c then factors as
    exp(-j 2 pi nu_i (kappa[n, j] - kappa_c) / N_s) = U[i, s] v[i, j], with
    U[i, s] = exp(-j 2 pi nu_i s M / N_s) and
    v[i, j] = exp(-j 2 pi nu_i (kappa[0, j] - kappa_c) / N_s), over the V
    distinct virtual slots.  Row v of ``scan_basis`` holds the row bases
    Q_j[n, :] of the samples in the v-th virtual slot, zero where that slot
    has no sample, and ``scan_index`` the flat region index of each (that of
    a hole is 0, its basis being 0).  Without a wrap the virtual slots are the
    slots and ``scan_index`` is the identity.
    """
    kappa = np.asarray(kappa)
    n_slots, lp = kappa.shape
    slot = (kappa - kappa[0]) // m
    slots = np.unique(slot)
    r = scan_node_count(cfo_range, kappa, n_s)
    nodes = cfo_range * chebpts1(r)
    centre = 0.5 * float(kappa.max() + kappa.min())
    row = np.searchsorted(slots, slot)
    col = np.broadcast_to(np.arange(lp), slot.shape)
    scan_basis = np.zeros((slots.size,) + row_basis.shape[1:])
    scan_basis[row, col] = row_basis
    scan_index = np.zeros((slots.size, lp), dtype=np.intp)
    scan_index[row, col] = np.arange(n_slots * lp).reshape(n_slots, lp)
    return CfoScan(
        ops=scan_operators(r, cfo_range, cfo_step),
        slot_rot=np.exp(-2j * np.pi * np.outer(nodes, slots * m) / n_s),
        row_rot=np.exp(-2j * np.pi * np.outer(nodes, kappa[0] - centre) / n_s),
        scan_basis=scan_basis, scan_index=scan_index, centre=centre)


def at_amplitude(rows: np.ndarray, amplitude: float) -> np.ndarray:
    """sum_k a^k rows[k] at noise amplitude a = ``amplitude``, by Horner's
    rule: the value of a quantity kept as the coefficients of a polynomial in
    a (``FrontEnd``).  One row is returned as it is, and two give
    rows[0] + a rows[1], the sum ``channel.add_awgn`` forms."""
    value = rows[-1]
    for row in rows[-2::-1]:
        value = row + amplitude * value
    return value


def estimate_cfo(samples: np.ndarray, bundle: EstimatorBundle, cfg: SystemConfig,
                 amplitudes=(0.0,)) -> list[CfoEstimate]:
    """The CFO search of a pilot region in the frame of the bundle's
    template (``derotate``), kept as a polynomial in the noise amplitude a
    (row k of the (K, N, L_p) ``samples`` the coefficient of a^k), at each a
    in ``amplitudes`` (a lane), one ``CfoEstimate`` per lane: coarse scan of the
    projection cost over the bundle's grid, Newton refinement on [best grid
    point +- cfo_step] within +-cfo_range (stopping at steps below
    NEWTON_STEP_FRAC * cfo_tol), then the LS coefficient solve at the
    winning offset.  An (S, K, N, L_p) ``samples`` stacks S such regions
    (streams), and ``amplitudes`` then holds the same number of lanes for
    each stream, stream by stream; the estimates come in that order.

    All three read one projection (module docstring) of the region rotated
    to the bundle's r Chebyshev nodes nu_i of +-cfo_range
    (``BemRegressor.cost_many``, made here so that the benchmark's tracer
    times it inside the search).  The rotation factors into a slot part
    and a row part (``cfo_scan``), and the row sums carry it through: with
    Y[s, j, k] = Q_j[n, k] rbar[n, j] at virtual slot s
    (``CfoScan.node_sums``), the projections at the nodes are
    W_i[j, k] = v[i, j] sum_s U[i, s] Y[s, j, k], one (r, V) @ (V, L_p*beta)
    product.  W holds the values at the nodes of the Chebyshev interpolant
    of w(eps), the projection of Phi^H(eps) rbar, r by the rule of
    ``scan_node_count``.  Its coefficients C = V^-1 W give the scalar cost
    polynomial g(x) = ||w(x)||^2, of degree 2r - 2, through
    T_a T_b = (T_{a+b} + T_{|a-b|}) / 2 (``cost_polynomial``).  Both are
    polynomials in a, made once for every lane of a stream; each lane's g
    is one row of a (lanes, 2K - 1) @ (2K - 1, 2r - 1) product with the
    powers a^i.  The cost curves are one (lanes, 2r - 1) @ (2r - 1, G)
    product, and differ from the dense scan by rounding only.  Each Newton
    iterate of a lane reads g, g' and g'' as one (3, 2r - 1) array (that
    lane's row of the product with the bundle's derivative operators) times
    T_s(x) = cos(s acos x).  The LS solve evaluates every lane's w at its
    estimate from C, one (lanes, r) @ (K, r, L_p*beta) product summed over k
    at the lane's a, and applies E (``BemRegressor.solve``) and the
    reconstruction to all lanes at once.  Every product is one stacked call
    with a slice per stream, which gives each lane the arithmetic of its
    stream searched alone.
    """
    if cfg.cfo_tol <= 0:
        raise ConfigError("cfo_tol must be > 0")
    grid, scan = bundle.grid, bundle.scan
    ops = scan.ops
    regions = np.asarray(samples)
    regions = regions.reshape((-1,) + regions.shape[-3:])
    # (S, 2K - 1, 2r - 1), (S, K, r, L_p*beta)
    gamma_rows, coeff_rows = bundle.regressor.cost_many(scan.node_sums(regions), ops.to_coeffs)
    a = np.array([float(amplitude) for amplitude in amplitudes]).reshape(len(regions), -1, 1)
    gamma = (a ** np.arange(gamma_rows.shape[1])) @ gamma_rows    # (S, lanes, 2r - 1)
    costs = gamma @ ops.grid_vander.T                   # (S, lanes, G)
    best = np.argmax(costs, axis=-1).ravel().tolist()
    derivs = (gamma @ ops.derivs).reshape(len(best), 3, -1)
    orders = np.arange(gamma.shape[-1])

    def angle(eps):
        # T_s(x) = cos(s acos x): one call, where chebvander loops per order
        return math.acos(min(max(eps / cfg.cfo_range, -1.0), 1.0))

    # each lane's w at its estimate, rotated back from the region centre, is
    # sum_k a^k sum_s weights[s] C[k, s], weights[s] = T_s(x) exp(-j 2 pi eps centre / N_s)
    turn = -2.0 * math.pi * scan.centre / cfg.n_s
    weights = np.empty(a.shape[:2] + coeff_rows.shape[-2:-1], dtype=complex)
    costs = costs.reshape(len(best), -1)
    eps_hat = []
    for lane_derivs, lane_costs, b, lane_weights in zip(derivs, costs, best,
                                                         weights.reshape(len(best), -1)):
        def cost_derivatives(eps, lane_derivs=lane_derivs):
            g, g1, g2 = (lane_derivs @ np.cos(orders * angle(eps))).tolist()
            return g, g1, g2

        eps_c = float(grid[b])
        lo = max(eps_c - cfg.cfo_step, -cfg.cfo_range)
        hi = min(eps_c + cfg.cfo_step, cfg.cfo_range)
        x_ref, f_ref = newton_max(cost_derivatives, eps_c, lo, hi, cfg.cfo_tol)
        # keep the exact grid point when refinement cannot improve on it
        eps = eps_c if lane_costs[b] >= f_ref else float(x_ref)
        lane_weights[:] = np.cos(orders[:len(lane_weights)] * angle(eps)) * cmath.exp(1j * turn * eps)
        eps_hat.append(eps)
    # (K, S, lanes, L_p*beta) at each lane's a
    w = at_amplitude((weights[:, np.newaxis] @ coeff_rows).swapaxes(0, 1), a)
    c_hat = bundle.regressor.solve(w).reshape(len(best), -1)
    h_hat = reconstruct_channel(c_hat, bundle.bem)
    return [CfoEstimate(epsilon_hat=eps, grid=grid, cost_curve=lane_costs, c_hat=c, h_hat=h)
            for eps, lane_costs, c, h in zip(eps_hat, costs, c_hat, h_hat)]


def reconstruct_channel(c_hat: np.ndarray, bem: np.ndarray) -> np.ndarray:
    """Tap trajectories over the pilot region from basis coefficients.

    Returns h[n, l, j] = sum_g T_g(kprime[n, j]) c[l*beta + g] for taps
    l = 0..L_p-1 and every time slot n, C-ordered like the truth taps
    (``harness.true_pilot_taps``) that it is scored on; a (..., L_p*beta)
    stack of coefficients gives (..., N, L_p, L_p).  One real
    (N*L_p, beta) @ (beta, 2 L_p lanes) product on the [Re, Im] interleaved
    coefficients of every lane, and one transposing copy.
    """
    n, lp, beta = bem.shape
    c_hat = np.asarray(c_hat, dtype=np.complex128)
    lead = c_hat.shape[:-1]
    lanes = math.prod(lead)
    taps = np.ascontiguousarray(c_hat.reshape(lanes * lp, beta).T)     # [g, (lane, l)]
    h = (bem.reshape(n * lp, beta) @ taps.view(np.float64)).view(np.complex128)
    h = np.ascontiguousarray(h.reshape(n, lp, lanes, lp).transpose(2, 0, 3, 1))
    return h.reshape(lead + (n, lp, lp))


# ---------------------------------------------------------------------------
# per-user pipeline
# ---------------------------------------------------------------------------

@dataclass
class EstimatorBundle:
    """Receive-side quantities fixed by (config, theta, beta) and shared by
    all users: the basis, the row-wise regressor of the Doppler-free
    template 1 (x) p (module docstring; every user's region fits it after
    ``derotate``), the coarse CFO grid, and the CFO search through the row
    sums (``scan``), which is built on first read, so a bundle that only
    fits (the absorbed baseline's) never builds it.

    The search rotates the region to r Chebyshev nodes of +-cfo_range about
    the region centre (a phase common to every kappa leaves the cost
    unchanged, and centring halves the bandwidth), r by the rule of
    ``scan_node_count``.  The rotations are kept as their factors U (r, V)
    over the virtual slots and v (r, L_p) over the rows (``cfo_scan``),
    about 20 KB instead of an (r, N*L_p) table; the real operators of the
    cost polynomial are shared through ``scan_operators``.  The scan, the
    Newton refinement and the LS solve all read the one node projection
    (``estimate_cfo``).  Cached across trials because none of them depends
    on the received samples."""

    bem: np.ndarray                 # (N, L_p, beta) basis values
    regressor: BemRegressor
    grid: np.ndarray                # (G,) coarse CFO search points
    kappa: np.ndarray               # (N, L_p) sample indices of the region
    cfg: SystemConfig               # the geometry and the CFO search range

    @functools.cached_property
    def scan(self) -> CfoScan:
        cfg = self.cfg
        return cfo_scan(self.kappa, self.regressor.row_basis, cfg.cfo_range, cfg.cfo_step,
                        cfg.m, cfg.n_s)


def estimator_bundle(cfg: SystemConfig, theta: int,
                     beta: int | None = None) -> EstimatorBundle:
    """The bundle of ``cfg`` at timing offset ``theta`` and basis order
    ``beta`` (default ``cfg.beta``), fitted to the config's PCP
    (``pilot.make_pcp(zc_len, zc_root, pilot_power_db)``)."""
    # cached on every field the bundle reads: the user count, the pilot
    # Doppler offset and the SNR are left out, as every user fits the
    # Doppler-free template
    return _cached_bundle(cfg.m, cfg.n, cfg.cp_len, cfg.zc_len, cfg.zc_root,
                          cfg.pilot_power_db, cfg.anchor, cfg.cfo_range, cfg.cfo_step,
                          cfg.beta if beta is None else beta, int(theta))


@functools.lru_cache(maxsize=256)
def _cached_bundle(m, n, cp_len, zc_len, zc_root, pilot_power_db, anchor, cfo_range,
                   cfo_step, beta, theta) -> EstimatorBundle:
    cfg = SystemConfig(m=m, n=n, cp_len=cp_len, zc_len=zc_len, zc_root=zc_root,
                       pilot_power_db=pilot_power_db, pilot_anchor=anchor,
                       cfo_range=cfo_range, cfo_step=cfo_step)
    kappa = pilot.region_kappa(cfg, theta)
    bem = build_bem_basis(beta, kappa, cfg.n_s)
    pcp = pilot.make_pcp(zc_len, zc_root, pilot_power_db)
    regressor = build_bem_regressor(pilot.region_pilot(cfg, pcp), bem)
    return EstimatorBundle(bem=bem, regressor=regressor, grid=cfo_grid(cfo_range, cfo_step),
                           kappa=kappa, cfg=cfg)


@dataclass(frozen=True)
class FrontEnd:
    """The receiver's linear front end of a draw and the points it serves,
    its lanes, one entry per lane; ``front_end`` makes it from the draw's
    received streams and lane table (``harness.draw_trial``).

    Lane p reads stream ``stream[p]`` at noise amplitude a =
    ``amplitude[p]``.  A stream is K rows of ``separated``, row k the
    coefficient of a^k in the received quantity at noise amplitude a
    (``at_amplitude``).  Either every lane reads one stream, or each lane
    has a stream of its own, as ``synchronize_user`` and ``estimate_cfo``
    read them.  ``cfg`` is the geometry of every lane (the lanes differ in
    the SNR and the pinned CFO alone).  ``curves`` and ``to_estimate`` are
    every lane's timing curves and TO decisions.  Frozen: the back end
    (``synchronize_user``) only reads it."""

    cfg: SystemConfig
    separated: np.ndarray           # (S, K, Q, M*N) separated streams
    stream: np.ndarray              # (P,) the stream index of each lane
    amplitude: np.ndarray           # (P,) the noise amplitude a of each lane
    curves: np.ndarray              # (P, Q, M) timing curves
    to_estimate: ToEstimate         # (P, Q) TO decisions


def front_end(streams: np.ndarray, stream, amplitude, pcp: np.ndarray,
              cfg: SystemConfig) -> FrontEnd:
    """The ``FrontEnd`` of the (S, K, N_s) received streams ``streams``,
    whose lane p reads stream ``stream[p]`` at noise amplitude
    ``amplitude[p]``.  One stream at a time, the timing-offset margin and
    the rest of the CP are removed, the filter bank and the PCP correlation
    run once on its K rows, and each of its lanes takes its timing curves
    from the correlation at its a; the correlation is dropped with the
    stream.  The TO decisions of every (lane, user) are one ``estimate_to``
    call."""
    stream, amplitude = np.asarray(stream, dtype=np.intp), np.asarray(amplitude, dtype=float)
    separated = np.empty(streams.shape[:2] + (cfg.num_users, cfg.m * cfg.n), dtype=complex)
    curves = np.empty((len(stream), cfg.num_users, cfg.m))
    for s, rows in enumerate(streams):
        separated[s] = separate_user(modem.remove_cp(rows[..., cfg.theta_max:], cfg.cp_rem,
                                                     out_len=cfg.m * cfg.n), cfg)
        corr = timing_correlate(separated[s], pcp, cfg)
        for lane in np.flatnonzero(stream == s):
            curves[lane] = timing_curve(at_amplitude(corr, amplitude[lane]), cfg)
    return FrontEnd(cfg=cfg, separated=separated, stream=stream, amplitude=amplitude,
                    curves=curves, to_estimate=estimate_to(curves, cfg))


def synchronize_user(front: FrontEnd, user: int, theta: int,
                     lanes) -> tuple[np.ndarray, list[CfoEstimate]]:
    """Per-user back end of the receiver at timing offset ``theta`` for the
    lanes ``lanes`` (ascending lane indices of the front end, those whose
    theta_hat is ``theta``): user ``user``'s (lanes, N, L_p) received pilot
    regions, each read at its lane's noise amplitude a, and one
    ``CfoEstimate`` per lane, in the order of ``lanes``.  One
    ``estimate_cfo`` runs on the de-rotated (``derotate``) regions of the
    lanes' streams with the bundle at ``theta``, which all users share."""
    cfg, lanes = front.cfg, np.asarray(lanes, dtype=np.intp)
    stream, amplitude = front.stream[lanes], front.amplitude[lanes]
    # the lanes share one stream or each have their own, so the amplitudes
    # come stream by stream, as ``estimate_cfo`` reads them
    streams = sorted(set(stream.tolist()))
    region = extract_pilot_region(front.separated[:, :, user], theta, cfg)[streams]
    estimates = estimate_cfo(derotate(region, cfg, user), estimator_bundle(cfg, theta), cfg,
                             amplitude)
    # (K, lanes, N, L_p) rows, and each lane's region at its a
    rows = region[np.searchsorted(streams, stream)].swapaxes(0, 1)
    return at_amplitude(rows, amplitude[:, np.newaxis, np.newaxis]), estimates
