"""Receiver-side estimation: filter-bank user separation, correlation-based
timing-offset estimation, and ML carrier-frequency-offset plus channel
estimation on a Chebyshev basis expansion.

The users share the receiver's front end: ``separate_user`` runs the whole
filter bank once per received stream and returns every user's separated
stream, and ``timing_correlate`` correlates all of them with the PCP in one
product.  The users split after that: ``synchronize_user`` is the per-user
back end (TO decision, pilot region, estimator bundle, CFO and channel),
a pure function of the user's rows, so the Q back ends are independent.

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

Each user's CFO search is one projection: the coarse scan projects the
region rotated to r Chebyshev nodes of +-cfo_range, whose rotation factors
into a slot part and a row part (``cfo_scan``) that the row sums carry.
That projection is the Chebyshev interpolant of w(eps), and ||w||^2 is a
scalar Chebyshev polynomial of degree 2r - 2 (``cost_polynomial``) on
which the grid costs and the Newton refinement run; the LS solve reads w
at the estimate (``estimate_cfo``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
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
    order, row q for user q.

    Implemented as one DFT over the time slots of the (N, M) slot-major
    view of the stream, Q masks, and one batched IDFT; each filter is
    equivalent to a circulant filter along the time axis.  The name stays
    singular because the benchmark's tracer wraps ``separate_user`` by name,
    until stage timing moves into the library (ROADMAP Direction 4).
    """
    m, n, num_users = cfg.m, cfg.n, cfg.num_users
    if num_users > n:
        raise ConfigError(f"num_users={num_users} exceeds the Doppler axis n={n}")
    stream = np.asarray(stream)
    if stream.size != m * n:
        raise ConfigError(f"expected {m * n} samples, got {stream.size}")
    spectrum = np.fft.fft(stream.reshape(n, m), axis=0)
    masks = doppler_mask(cfg, np.arange(num_users)[:, np.newaxis])
    bank = np.where(masks[:, :, np.newaxis], spectrum, 0.0)
    return np.fft.ifft(bank, axis=1).reshape(num_users, m * n)


# ---------------------------------------------------------------------------
# timing-offset estimation
# ---------------------------------------------------------------------------

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
                     cfg: SystemConfig) -> np.ndarray:
    """Correlate every slot of the filtered streams with the PCP.

    ``separated`` is one M*N-sample stream or the (Q, M*N) bank of
    ``separate_user``; the timing curve is (M,) or (Q, M) to match.  Entry l
    of a curve is the time average of the per-slot correlation magnitudes
    at the offset candidate (l + cp_len - anchor - 1) mod M (``estimate_to``).

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
    corr = (rows @ pcp_toeplitz(pcp, block)).reshape(lead + (-1,))[..., :m * n]  # lag n*M + d
    curve = np.abs(corr).reshape(lead + (n, m)).mean(axis=-2) / (m * math.sqrt(n))
    shift = (cfg.cp_len - cfg.anchor - 1) % m           # lag d peaks at the offset
    return np.roll(curve, -shift, axis=-1)


def estimate_to(curve: np.ndarray, cfg: SystemConfig) -> ToEstimate:
    """Threshold peak grouping and first-peak selection on one user's (M,)
    timing curve (``timing_correlate``), at ``cfg.threshold``.

    Curve indices map to offset candidates through
    (l + cp_len - anchor - 1) mod M; the first peak is the smallest candidate
    in the threshold set, which favors the earliest channel tap over the
    strongest one.
    """
    threshold = cfg.threshold
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"threshold={threshold} outside (0, 1]")
    m = curve.size
    if m == 0:
        raise EstimationError("empty timing metric")
    peak_set = np.flatnonzero(curve >= threshold * curve.max())
    shift = cfg.cp_len - cfg.anchor - 1
    offsets = (peak_set + shift) % m
    max_peak = (int(np.argmax(curve)) + shift) % m
    return ToEstimate(first_peak=int(offsets.min()), max_peak=int(max_peak))


# ---------------------------------------------------------------------------
# pilot-region extraction
# ---------------------------------------------------------------------------

@dataclass
class PilotRegion:
    """Received pilot-region samples and their absolute sample indices.

    ``samples[n, j]`` is the filtered receive sample at delay row
    anchor + theta_hat + j of time slot n (``pilot.region_index``).
    ``kappa`` holds the matching absolute post-CP-removal sample indices used
    for every phase and basis evaluation.
    """

    samples: np.ndarray   # (N, L_p) complex
    kappa: np.ndarray     # (N, L_p) int


def extract_pilot_region(filtered: np.ndarray, theta_hat: int,
                         cfg: SystemConfig) -> PilotRegion:
    """Stack the L_p pilot samples of every time slot after the PCP prefix."""
    filtered = np.asarray(filtered)
    if filtered.size != cfg.m * cfg.n:
        raise ConfigError(f"expected {cfg.m * cfg.n} samples, got {filtered.size}")
    idx = pilot.region_index(cfg, theta_hat)
    return PilotRegion(samples=filtered[idx], kappa=cfg.cp_len + idx)


def derotate(region: PilotRegion, cfg: SystemConfig, user: int) -> PilotRegion:
    """User ``user``'s region in the frame of the Doppler-free template
    1 (x) p: slot n times conj(``pilot.slot_phase``[n]).  The phase is
    common to the slot and commutes with the CFO rotation and the BEM taps,
    so the de-rotated region has the same CFO and channel as the received
    one."""
    phase = np.conj(pilot.slot_phase(cfg, user))
    return PilotRegion(samples=region.samples * phase[:, np.newaxis], kappa=region.kappa)


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
        """(gamma, C) of a CFO scan from the (r, L_p*beta) projections W of the
        region rotated to r Chebyshev nodes: W holds the values there of the
        interpolant w(x), C = to_coeffs @ W its Chebyshev coefficients
        (``to_coeffs`` the inverse Chebyshev-Vandermonde matrix of the nodes),
        and gamma the 2r - 1 Chebyshev coefficients of the cost ||w(x)||^2
        (``cost_polynomial``)."""
        # [Re, Im] interleaved, so that the real operator acts in real arithmetic
        coeffs = (to_coeffs @ node_sums.view(np.float64)).view(np.complex128)
        return cost_polynomial(coeffs), coeffs

    def solve(self, w: np.ndarray) -> np.ndarray:
        """LS coefficients E w from a projection w."""
        return self._solve @ w

    def coeffs(self, z: np.ndarray) -> np.ndarray:
        """LS coefficient solve of one region z (N*L_p samples in region order)."""
        return self.solve(self.slot_sums(z)[0])


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


def cost_polynomial(coeffs: np.ndarray) -> np.ndarray:
    """The 2r - 1 Chebyshev coefficients of g(x) = ||w(x)||^2 for
    w(x) = sum_a coeffs[a] T_a(x): with H = Re(C C^H),
    g = sum_ab H[a, b] T_a T_b, and T_a T_b = (T_{a+b} + T_{|a-b|}) / 2."""
    parts = coeffs.view(np.float64)
    gram = (parts @ parts.T).ravel()
    size = 2 * coeffs.shape[0] - 1
    sums, diffs = _product_orders(coeffs.shape[0])
    return 0.5 * (np.bincount(sums, gram, size) + np.bincount(diffs, gram, size))


@functools.lru_cache(maxsize=32)
def _product_orders(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Flattened a + b and |a - b| over the (r, r) orders of a Gram matrix."""
    a = np.arange(r)
    return (a[:, None] + a).ravel(), np.abs(a[:, None] - a).ravel()


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
    w = regressor.slot_sums(z)
    return float(np.vdot(w, w).real)


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
    derivs: np.ndarray        # (3, 2r - 1, 2r - 1) coefficients of g -> of g, g', g'' in eps


# as large as the bundle cache (``_cached_bundle``), so that the bundles it
# holds keep sharing the copy that this cache returns
@functools.lru_cache(maxsize=256)
def scan_operators(r: int, cfo_range: float, cfo_step: float) -> ScanOperators:
    """The inverse Chebyshev-Vandermonde matrix V^-1 of r first-kind nodes,
    the Chebyshev-Vandermonde matrix of degree 2r - 2 at the grid points, and
    the identity, D_1 / cfo_range and D_2 / cfo_range**2, with D_k the
    degree-2r - 2 matrix of ``chebder``; read-only."""
    nodes = cfo_range * chebpts1(r)
    size = 2 * r - 1
    derivs = [np.eye(size)]
    for order in (1, 2):
        deriv = chebder(np.eye(size), m=order) / cfo_range ** order
        derivs.append(np.vstack([deriv, np.zeros((order, size))]))
    ops = ScanOperators(
        to_coeffs=np.linalg.inv(chebvander(nodes / cfo_range, r - 1)),
        grid_vander=chebvander(cfo_grid(cfo_range, cfo_step) / cfo_range, size - 1),
        derivs=np.stack(derivs))
    for array in (ops.to_coeffs, ops.grid_vander, ops.derivs):
        array.flags.writeable = False
    return ops


def cfo_scan(kappa: np.ndarray, row_basis: np.ndarray, cfo_range: float, m: int,
             n_s: int) -> dict:
    """The per-region fields of the CFO search (``EstimatorBundle``):
    ``slot_rot`` U (r, V), ``row_rot`` v (r, L_p), ``scan_basis`` (V, L_p,
    beta), ``scan_index`` and ``centre``.

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
    return dict(
        slot_rot=np.exp(-2j * np.pi * np.outer(nodes, slots * m) / n_s),
        row_rot=np.exp(-2j * np.pi * np.outer(nodes, kappa[0] - centre) / n_s),
        scan_basis=scan_basis, scan_index=scan_index, centre=centre)


def estimate_cfo(region: PilotRegion, bundle: EstimatorBundle,
                 cfg: SystemConfig) -> CfoEstimate:
    """Coarse scan of the projection cost over the bundle's grid, Newton
    refinement on [best grid point +- cfo_step] within +-cfo_range (stopping
    at steps below NEWTON_STEP_FRAC * cfo_tol), then the LS coefficient solve
    at the winning offset.  ``region`` is in the frame of the bundle's
    template (``derotate``).

    All three read one projection (module docstring) of the region rotated
    to the bundle's r Chebyshev nodes nu_i of +-cfo_range.  The rotation
    factors into a slot part and a row part (``cfo_scan``), and the row sums
    carry it through: with Y[s, j, k] = Q_j[n, k] rbar[n, j] at virtual slot
    s (``EstimatorBundle.node_sums``), the projections at the nodes are
    W_i[j, k] = v[i, j] sum_s U[i, s] Y[s, j, k], one (r, V) @ (V, L_p*beta)
    product.  W holds the values at the nodes of the Chebyshev interpolant
    of w(eps), the projection of Phi^H(eps) rbar, each interpolated rotation
    within 2**-52 of the exact one (``scan_node_count``).  Its coefficients
    C = V^-1 W (``cost_many``) give the scalar cost polynomial
    g(x) = ||w(x)||^2, of degree 2r - 2, through
    T_a T_b = (T_{a+b} + T_{|a-b|}) / 2 (``cost_polynomial``): the cost
    curve is one (G, 2r - 1) product with it, and differs from the dense
    scan by rounding only.  Each Newton iterate reads g, g' and g'' as one
    (3, 2r - 1) array (the bundle's derivative operators applied to g) times
    T_s(x) = cos(s acos x).  The LS solve evaluates w at the estimate from C
    and applies E (``BemRegressor.solve``).
    """
    if cfg.cfo_tol <= 0:
        raise ConfigError("cfo_tol must be > 0")
    grid, regressor, ops = bundle.grid, bundle.regressor, bundle.scan_ops
    gamma, coeffs = regressor.cost_many(bundle.node_sums(region.samples), ops.to_coeffs)
    costs = ops.grid_vander @ gamma
    best = int(np.argmax(costs))
    eps_c = float(grid[best])
    derivs = ops.derivs @ gamma                         # (3, 2r - 1)
    orders = np.arange(gamma.size)

    def chebyshev_at(eps):
        # T_s(x) = cos(s acos x): one call, where chebvander loops per order
        return np.cos(orders * math.acos(min(max(eps / cfg.cfo_range, -1.0), 1.0)))

    def cost_derivatives(eps):
        g, g1, g2 = (derivs @ chebyshev_at(eps)).tolist()
        return g, g1, g2

    lo = max(eps_c - cfg.cfo_step, -cfg.cfo_range)
    hi = min(eps_c + cfg.cfo_step, cfg.cfo_range)
    x_ref, f_ref = newton_max(cost_derivatives, eps_c, lo, hi, cfg.cfo_tol)
    # keep the exact grid point when refinement cannot improve on it
    eps_hat = eps_c if costs[best] >= f_ref else float(x_ref)
    basis = chebyshev_at(eps_hat)[:coeffs.shape[0]]
    w = (basis @ coeffs.view(np.float64)).view(np.complex128)
    c_hat = regressor.solve(w * np.exp(-2j * np.pi * eps_hat * bundle.centre / cfg.n_s))
    return CfoEstimate(epsilon_hat=eps_hat, grid=grid, cost_curve=costs,
                       c_hat=c_hat, h_hat=reconstruct_channel(c_hat, bundle.bem))


def reconstruct_channel(c_hat: np.ndarray, bem: np.ndarray) -> np.ndarray:
    """Tap trajectories over the pilot region from basis coefficients.

    Returns h[n, l, j] = sum_g T_g(kprime[n, j]) c[l*beta + g] for taps
    l = 0..L_p-1 and every time slot n, from one real (N*L_p, beta) @
    (beta, 2 L_p) product on the [Re, Im] interleaved coefficients.
    """
    n, lp, beta = bem.shape
    taps = np.ascontiguousarray(np.asarray(c_hat, dtype=np.complex128).reshape(lp, beta).T)
    h = (bem.reshape(n * lp, beta) @ taps.view(np.float64)).view(np.complex128)
    return h.reshape(n, lp, lp).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# per-user pipeline
# ---------------------------------------------------------------------------

@dataclass
class EstimatorBundle:
    """Receive-side quantities fixed by (config, theta, beta) and shared by
    all users: the basis, the row-wise regressor of the Doppler-free
    template 1 (x) p (module docstring; every user's region fits it after
    ``derotate``), the coarse CFO grid, and the CFO search through the row
    sums.

    The search rotates the region to r Chebyshev nodes of +-cfo_range about
    the region centre (a phase common to every kappa leaves the cost
    unchanged, and centring halves the bandwidth).  r comes from the
    geometry by one rule, ``scan_node_count``: the smallest count with
    (a/2)**r / r! < 2**-52, plus one, for the bandwidth
    a = 2 pi cfo_range (kappa_max - kappa_min) / (2 N_s) of the rotations,
    so every interpolated rotation is exact to 2**-52 (r = 29 or 30 at the
    default geometry).  The rotations are kept as their factors U (r, V)
    over the virtual slots and v (r, L_p) over the rows (``cfo_scan``),
    about 20 KB instead of an (r, N*L_p) table; the real operators of the
    cost polynomial are shared through ``scan_operators``.  The scan, the
    Newton refinement and the LS solve all read the one node projection
    (``estimate_cfo``).  Cached across trials because none of them depends
    on the received samples."""

    bem: np.ndarray                 # (N, L_p, beta) basis values
    regressor: BemRegressor
    grid: np.ndarray                # (G,) coarse CFO search points
    scan_ops: ScanOperators         # shared per (r, cfo_range, cfo_step)
    slot_rot: np.ndarray            # (r, V) U: node rotation per virtual slot
    row_rot: np.ndarray             # (r, L_p) v: node rotation per row
    scan_basis: np.ndarray          # (V, L_p, beta) row basis per virtual slot
    scan_index: np.ndarray          # (V, L_p) region index per virtual slot
    centre: float                   # kappa of the region centre

    def node_sums(self, samples: np.ndarray) -> np.ndarray:
        """(r, L_p*beta) projections of the region ``samples`` (N, L_p)
        rotated to the r nodes: v[i, j] sum_s U[i, s] Y[s, j, k]."""
        y = samples.ravel()[self.scan_index][:, :, np.newaxis] * self.scan_basis
        r, lp = self.row_rot.shape
        sums = (self.slot_rot @ y.reshape(y.shape[0], -1)).reshape(r, lp, -1)
        sums *= self.row_rot[:, :, np.newaxis]
        return sums.reshape(r, -1)


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
    kappa = cp_len + pilot.region_index(cfg, theta)
    bem = build_bem_basis(beta, kappa, cfg.n_s)
    pcp = pilot.make_pcp(zc_len, zc_root, pilot_power_db)
    regressor = build_bem_regressor(pilot.region_pilot(cfg, pcp), bem)
    scan = cfo_scan(kappa, regressor.row_basis, cfo_range, m, cfg.n_s)
    ops = scan_operators(scan["slot_rot"].shape[0], cfo_range, cfo_step)
    return EstimatorBundle(bem=bem, regressor=regressor, grid=cfo_grid(cfo_range, cfo_step),
                           scan_ops=ops, **scan)


@dataclass
class UserSyncResult:
    to_estimate: ToEstimate
    theta_used: int
    metric: np.ndarray              # (M,) the user's timing curve
    region: PilotRegion
    cfo: CfoEstimate


def synchronize_user(separated: np.ndarray, curves: np.ndarray, user: int,
                     cfg: SystemConfig, theta_override: int | None = None) -> UserSyncResult:
    """Per-user back end of the receiver: user ``user``'s TO decision, pilot
    region, estimator bundle and CFO, read from its row of the separated
    streams (``separate_user``) and of the timing curves
    (``timing_correlate``).  The bundle is shared by all users; the CFO
    search runs on the region de-rotated to its template (``derotate``),
    and the result keeps the received region."""
    curve = curves[user]
    to_est = estimate_to(curve, cfg)
    theta = int(theta_override) if theta_override is not None else to_est.first_peak
    region = extract_pilot_region(separated[user], theta, cfg)
    bundle = estimator_bundle(cfg, theta)
    cfo = estimate_cfo(derotate(region, cfg, user), bundle, cfg)
    return UserSyncResult(to_estimate=to_est, theta_used=theta, metric=curve,
                          region=region, cfo=cfo)
