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
the separated rows with the PCP in one call, a Toeplitz product per row,
and each lane of the stream takes its timing curves from that correlation
at its a.  The front end keeps the curves and no correlation, and the TO
decisions of every (lane, user) are one ``estimate_to`` call.  The users
split after that: ``synchronize_user`` is the per-user back end (pilot
region, shared table, CFO and channel) at one theta_hat, and the Q back
ends are independent.  Each user's pilot region and CFO projection are polynomials
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
fits the Doppler-free template 1 (x) p, and one table (``BemRegressor``)
per (geometry, theta_hat, beta) serves every user and trial.  The PCP makes
each slot's tap convolution circular over the L_p region rows, so with the
row-j Chebyshev matrix B_j[n, g] = T_g(kprime[n, j]) the model of row j is

    z[:, j] = B_j d_j,   d_j[g] = sum_l C[j, l] c[l, g],   C[j, l] = p[(j - l) mod L_p],

for the tap coefficients c[l, g] of h[l, .] = sum_g c[l, g] T_g(.).  A
Zadoff-Chu row has a flat spectrum: the eigenvalues FFT(p) of the circulant
C all have modulus |p[0]| sqrt(L_p), so C is invertible with condition
number 1, and the regressor's range is the direct sum of the row ranges of
B_j.  With the QR factors B_j = Q_j R_j (``build_bem_regressor``, real
because B_j is) the projection of a region z is the L_p*beta row sums

    w[j, k] = sum_n Q_j[n, k] z[n, j],

its cost is ||w||^2 = sum_j ||Q_j^T z[:, j]||^2, and the LS coefficients
are c = (C^-1 (x) I_beta) [R_j^-1 w[j]] = E w (``BemRegressor.solve``).

The table lays the row sums out over the region's V virtual slots
(``build_bem_regressor``), as slot rows Y[s, (j, k)] = Q_j[n, k] z[n, j]
(``BemRegressor.slot_rows``) that sum over s to w.  The CFO rotation
factors into a phase per delay row and exp(-j Omega eps s) per virtual slot
s, Omega = 2 pi M / N_s, so the projection at eps is the row phase times
sum_s exp(-j Omega eps s) Y[s, j, k].  As the region is fitted one row at a
time, the row phase drops out of ||w||^2: the cost is exactly the
trigonometric polynomial
g(eps) = rho[0] + 2 Re sum_(d >= 1) rho[d] exp(-j Omega eps d) of degree
V - 1, whose coefficients rho[d] are the lag-d sums of the Gram matrix
Y Y^H, the slot-lag correlations of the region (the correlation form of ML
frequency estimation).  The grid costs (``lag_tables``) and the Newton
refinement run on it, and the LS solve reads w at the estimate
(``estimate_cfo``).  With the region signal + a noise, Y is Y_s + a Y_n
and rho is rho_ss + a (rho_sn + rho_ns) + a^2 rho_nn, so the correlations
are made once for every a (``BemRegressor.cost_many``), and the scan, the
derivative operators and the LS solve of all the lanes are one stacked
product each, one slice per stream, so that each lane's arithmetic is that
of its stream searched alone; only the Newton refinement runs lane by lane.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    and the windows of one stacked row make one (ceil(M*N / TIMING_BLOCK),
    TIMING_BLOCK + span - 1) @ ``pcp_toeplitz`` product, written into that
    row of the result.  The rows go one at a time through one zero-padded
    buffer of whole blocks, so that the transient is one row's windows, not
    those of the whole stack; the surplus lags are dropped.
    """
    m, n = cfg.m, cfg.n
    separated = np.asarray(separated)
    if separated.shape[-1] != m * n:
        raise ConfigError(f"expected {m * n} samples, got {separated.shape[-1]}")
    lo, span, block = cfg.delay_lo, pcp.size, TIMING_BLOCK
    blocks = -(-m * n // block)
    lead = separated.shape[:-1]
    toeplitz = pcp_toeplitz(pcp, block)
    stream = np.zeros(blocks * block + span - 1, dtype=complex)
    windows = sliding_window_view(stream, block + span - 1)[::block]
    corr = np.empty(lead + (blocks, block), dtype=complex)
    for index in np.ndindex(lead):
        row = separated[index]
        stream[:m * n - lo] = row[lo:]
        stream[m * n - lo:m * n + span - 1] = row[:lo + span - 1]
        np.matmul(np.ascontiguousarray(windows), toeplitz, out=corr[index])
    return corr.reshape(lead + (-1,))[..., :m * n]


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

def chebyshev_vander(x: np.ndarray, degree: int) -> np.ndarray:
    """(*x.shape, degree + 1) first-kind Chebyshev values T_g(x), g <= degree,
    by the three-term recurrence T_g = 2x T_{g-1} - T_{g-2}: the arithmetic
    and the layout (a view of a (degree + 1, *x.shape) array) of numpy's
    ``chebvander``, without loading ``numpy.polynomial``."""
    x = np.asarray(x, dtype=float) + 0.0
    v = np.empty((degree + 1,) + x.shape)
    v[0] = 1.0
    if degree > 0:
        x2 = 2 * x
        v[1] = x
        for g in range(2, degree + 1):
            v[g] = v[g - 1] * x2 - v[g - 2]
    return np.moveaxis(v, 0, -1)


def build_bem_basis(beta: int, kappa: np.ndarray, n_s: int) -> np.ndarray:
    """(*kappa.shape, beta) first-kind Chebyshev values T_g(kprime) at the
    normalized instants kprime = (2*kappa - N_s + 1)/(N_s - 1)
    (``chebyshev_vander``)."""
    if beta < 1:
        raise ConfigError(f"bem order {beta} must be >= 1")
    kprime = (2.0 * np.asarray(kappa, dtype=float) - n_s + 1.0) / (n_s - 1.0)
    return chebyshev_vander(kprime, beta - 1)


@dataclass(frozen=True)
class BemRegressor:
    """The receive-side table of one (geometry, theta_hat, beta) that every
    user and trial reads (``estimator_bundle``): the row-wise LS fit of a
    pilot region on the Doppler-free template 1 (x) p (module docstring)
    over its V virtual slots (``build_bem_regressor``), and the solve matrix
    E = (C^-1 (x) I_beta) blockdiag(R_j^-1) from a projection w to the
    coefficients.  Its row bases take about 20 KB at the default geometry,
    where a table of rotations would take G*N*L_p phases."""

    bem: np.ndarray = field(repr=False)           # (N, L_p, beta) basis values
    scan_basis: np.ndarray = field(repr=False)    # (V, L_p, beta) Q_j rows per virtual slot
    scan_index: np.ndarray = field(repr=False)    # (V, L_p) region index per virtual slot
    row_kappa: np.ndarray = field(repr=False)     # (L_p,) kappa of each row at virtual slot 0
    _solve: np.ndarray = field(repr=False)        # (L_p*beta, L_p*beta) E

    def slot_rows(self, samples: np.ndarray) -> np.ndarray:
        """(..., V, L_p*beta) slot rows Y[s, (j, k)] = Q_j[n, k] z[n, j] of
        the regions z ``samples`` (..., N, L_p), sample (n, j) at its
        virtual slot s, zero where a slot has no sample of row j; their sum
        over s is the projection w."""
        lead = samples.shape[:-2]
        y = samples.reshape(lead + (-1,))[..., self.scan_index, np.newaxis] * self.scan_basis
        return y.reshape(lead + (len(self.scan_index), -1))

    def cost_many(self, rows: np.ndarray) -> np.ndarray:
        """The lag coefficients of the CFO cost of a region that is a
        polynomial sum_k a^k z_k in the noise amplitude a, from its
        (..., K, V, L_p*beta) slot rows Y_k (``slot_rows``): row i of
        the (..., 2K - 1, V) result holds the c_d of the a^i term of
        g(eps) = Re sum_d c_d exp(-j Omega eps d), c_0 = rho[0] and
        c_d = 2 rho[d] for the lag sums rho[d] of sum over k + l = i of
        Y_k Y_l^H along s - t = d (``estimate_cfo``); rho[0] is real but
        for rounding, which the real part drops.  One Gram matrix of the
        stacked [Y_0; ...; Y_{K-1}] per region; leading axes stack regions
        (streams), each made as it would be alone."""
        k, v = rows.shape[-3:-1]
        lead = rows.shape[:-3]
        stacked = rows.reshape(lead + (k * v, -1))
        gram = stacked @ stacked.conj().swapaxes(-1, -2)
        blocks = gram.reshape(lead + (k, v, k, v)).swapaxes(-3, -2)     # [k, l, s, t]
        # each block with its columns reversed and padded to 2V columns: read
        # as V rows of 2V - 1, entry (s, t) falls in column s - t + V - 1
        skew = np.zeros(blocks.shape[:-1] + (2 * v,), dtype=complex)
        skew[..., :v] = blocks[..., ::-1]
        skew = skew.reshape(blocks.shape[:-2] + (-1,))[..., :v * (2 * v - 1)]
        rho = skew.reshape(blocks.shape[:-1] + (2 * v - 1,)).sum(axis=-2)[..., v - 1:]
        lags = np.zeros(lead + (2 * k - 1, v), dtype=complex)
        for i in range(k):
            for j in range(k):
                lags[..., i + j, :] += rho[..., i, j, :]
        lags[..., 1:] *= 2.0
        return lags

    def solve(self, w: np.ndarray) -> np.ndarray:
        """LS coefficients E w from a projection w, or from each row of a
        (..., lanes, L_p*beta) stack of them."""
        return w @ self._solve.T

    def coeffs(self, z: np.ndarray) -> np.ndarray:
        """LS coefficient solve of one region z (N*L_p samples in region
        order), or of each row of a (lanes, N*L_p) stack, as one (L_p*beta,)
        or (lanes, L_p*beta) array: E times the projection w, the slot rows
        summed over the slots as one (1, V) @ (V, beta) product per region
        and delay row; each region as it would be alone."""
        z = np.asarray(z)
        regions = z.reshape(-1, z.shape[-1])[:, self.scan_index]      # (lanes, V, L_p)
        w = regions.swapaxes(1, 2)[:, :, np.newaxis] @ self.scan_basis.transpose(1, 0, 2)
        return self.solve(w.reshape(len(regions), 1, -1)).reshape(z.shape[:-1] + (-1,))


def build_bem_regressor(p: np.ndarray, kappa: np.ndarray, beta: int, m: int,
                        n_s: int) -> BemRegressor:
    """The ``BemRegressor`` of the template 1 (x) p on the basis of order
    ``beta`` (``build_bem_basis``) at the (N, L_p) region sample indices
    ``kappa`` of a frame of ``n_s`` samples and M = ``m`` delay bins.

    The fit is factorized row by row: one stacked QR of the L_p row matrices
    B_j, the rank checks of R_j and of the pilot circulant C through its
    eigenvalues FFT(p), and E[(l, g), (j, k)] = C^-1[l, j] R_j^-1[g, k].

    The row bases are then laid out over the virtual slots.  Slot n of the
    region lies M samples after slot 0, except where the frame CP wraps it:
    kappa[n, j] = kappa[0, j] + s[n, j] M with the virtual slot s = n, or
    n - N for a sample that wrapped to the frame head (the tail of slot
    N - 1 at theta_hat >= 1 at the default geometry).  The V virtual slots
    run from the least s to the greatest, and the CFO rotation of sample
    (n, j) factors as exp(-j 2 pi eps kappa[n, j] / N_s) =
    exp(-j 2 pi eps row_kappa[j] / N_s) exp(-j Omega eps s), with s counted
    from the first virtual slot, row_kappa the kappa of that slot, and
    Omega = 2 pi M / N_s.  Row s of ``scan_basis`` holds the row bases
    Q_j[n, :] of the samples in virtual slot s, zero where that slot has no
    sample, and ``scan_index`` the flat region index of each (that of a hole
    is 0, its basis being 0).  Without a wrap the virtual slots are the
    slots and ``scan_index`` is the identity.
    """
    p, kappa = np.asarray(p), np.asarray(kappa)
    bem = build_bem_basis(beta, kappa, n_s)
    n_slots, lp = kappa.shape
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
    slot = (kappa - kappa[0]) // m
    first = int(slot.min())
    row, col = slot - first, np.broadcast_to(j, slot.shape)
    v = int(row.max()) + 1              # V virtual slots, so V lags 0 .. V - 1
    scan_basis = np.zeros((v, lp, beta))
    scan_basis[row, col] = q_rows.transpose(1, 0, 2)
    scan_index = np.zeros((v, lp), dtype=np.intp)
    scan_index[row, col] = np.arange(n_rows).reshape(n_slots, lp)
    return BemRegressor(bem=bem, scan_basis=scan_basis, scan_index=scan_index,
                        row_kappa=kappa[0] + first * m, _solve=solve.reshape(n_cols, n_cols))


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
    w = regressor.slot_rows(z.reshape(regressor.bem.shape[:2])).sum(axis=0)
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


def lag_phasors(eps, lag_turns: np.ndarray) -> np.ndarray:
    """exp(j eps Omega d) at every lag turn j Omega d of ``lag_turns``, as
    [Re, Im] interleaved reals: (2V,) for a scalar eps, (..., 2V) for eps of
    shape (..., 1).  Its dot product with a cost's interleaved lag
    coefficients c_d (``BemRegressor.cost_many``) is
    Re sum_d c_d exp(-j Omega eps d), the cost at eps."""
    return np.exp(eps * lag_turns).view(np.float64)


# as large as the table cache (``_cached_bundle``), so that the tables it
# holds share one copy per lag count and grid
@functools.lru_cache(maxsize=256)
def lag_tables(lags: int, m: int, n_s: int, cfo_range: float,
               cfo_step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The read-only tables of a CFO search over ``lags`` slot lags d at the
    slot frequency Omega = 2 pi M / N_s: the (G,) ``cfo_grid``, the (V,) lag
    turns j Omega d, the (3, V) factors [1, -j Omega d, -(Omega d)^2] that
    take the lag coefficients of g to those of g, g' and g'', and the (2V, G)
    ``lag_phasors`` of the grid, one column per grid point."""
    grid = cfo_grid(cfo_range, cfo_step)
    turns = 2j * np.pi * m / n_s * np.arange(lags)
    derivs = np.stack([np.ones(lags), -turns, turns * turns])
    phasors = np.ascontiguousarray(lag_phasors(grid[:, np.newaxis], turns).T)
    for table in (grid, turns, derivs, phasors):
        table.flags.writeable = False
    return grid, turns, derivs, phasors


def at_amplitude(rows: np.ndarray, amplitude: float) -> np.ndarray:
    """sum_k a^k rows[k] at noise amplitude a = ``amplitude``, by Horner's
    rule: the value of a quantity kept as the coefficients of a polynomial in
    a (``FrontEnd``).  One row is returned as it is, and two give
    rows[0] + a rows[1], the sum ``channel.add_awgn`` forms."""
    value = rows[-1]
    for row in rows[-2::-1]:
        value = row + amplitude * value
    return value


def estimate_cfo(samples: np.ndarray, bundle: BemRegressor, cfg: SystemConfig,
                 amplitudes=(0.0,)) -> list[CfoEstimate]:
    """The CFO search of a pilot region in the frame of the table's
    template (``derotate``), kept as a polynomial in the noise amplitude a
    (row k of the (K, N, L_p) ``samples`` the coefficient of a^k), at each a
    in ``amplitudes`` (a lane), one ``CfoEstimate`` per lane: coarse scan of the
    projection cost over the config's grid, Newton refinement on [best grid
    point +- cfo_step] within +-cfo_range (stopping at steps below
    NEWTON_STEP_FRAC * cfo_tol), then the LS coefficient solve at the
    winning offset, all on the table ``bundle`` (``estimator_bundle``) and
    the ``lag_tables`` of its V slots.  An (S, K, N, L_p) ``samples`` stacks
    S such regions (streams), and ``amplitudes`` then holds the same number
    of lanes for each stream, stream by stream; the estimates come in that
    order.

    All three read the slot rows Y[s, (j, k)] = Q_j[n, k] rbar[n, j] at
    virtual slot s (``BemRegressor.slot_rows``).  The rotation of a sample
    factors into a row phase and exp(-j Omega eps s) (``build_bem_regressor``),
    so the projection of the rotated region is
    w[j, k] = exp(-j 2 pi eps row_kappa[j] / N_s) sum_s exp(-j Omega eps s) Y[s, j, k].
    The row phase has modulus 1 and drops out of ||w||^2, so the cost is
    exactly g(eps) = sum_(j, k) |sum_s exp(-j Omega eps s) Y[s, j, k]|^2
    = Re sum_d c_d exp(-j Omega eps d), a trigonometric polynomial of degree
    V - 1 whose coefficients are the slot-lag correlations of Y
    (``BemRegressor.cost_many``, made here so that the benchmark's tracer
    times it inside the search).  They are polynomials in a, made once for
    every lane of a stream; each lane's c is one row of a
    (lanes, 2K - 1) @ (2K - 1, 2V) product with the powers a^i, in
    [Re, Im] interleaved reals.  The cost curves are one (lanes, 2V) @ (2V, G)
    product with the grid's phasors, and differ from the dense scan by
    rounding only.  Each Newton iterate of a lane reads g, g' and g'' as one
    (3, 2V) array (that lane's c times the ``lag_tables`` factors) times
    the phasors at its eps (``lag_phasors``).  The LS solve forms every
    lane's w at its estimate, one (lanes, V) @ (K, V, L_p*beta) product
    summed over k at the lane's a, times the row phases, and applies E
    (``BemRegressor.solve``) and the reconstruction to all lanes at once.
    Every product is one stacked call with a slice per stream, which gives
    each lane the arithmetic of its stream searched alone.
    """
    grid, turns, lag_derivs, grid_phasors = lag_tables(
        len(bundle.scan_index), cfg.m, cfg.n_s, cfg.cfo_range, cfg.cfo_step)
    regions = np.asarray(samples)
    regions = regions.reshape((-1,) + regions.shape[-3:])
    rows = bundle.slot_rows(regions)                        # (S, K, V, L_p*beta)
    lag_rows = bundle.cost_many(rows)                       # (S, 2K - 1, V)
    a = np.array([float(amplitude) for amplitude in amplitudes]).reshape(len(regions), -1, 1)
    lags = (a ** np.arange(lag_rows.shape[1])) @ lag_rows.view(np.float64)   # (S, lanes, 2V)
    costs = (lags @ grid_phasors).reshape(-1, grid.size)
    best = np.argmax(costs, axis=-1).tolist()
    derivs = (lags.view(np.complex128)[..., np.newaxis, :] * lag_derivs).view(np.float64)
    eps_hat = []
    for lane_derivs, lane_costs, b in zip(derivs.reshape(len(best), 3, -1), costs, best):
        def cost_derivatives(eps, lane_derivs=lane_derivs):
            g, g1, g2 = (lane_derivs @ lag_phasors(eps, turns)).tolist()
            return g, g1, g2

        eps_c = float(grid[b])
        lo = max(eps_c - cfg.cfo_step, -cfg.cfo_range)
        hi = min(eps_c + cfg.cfo_step, cfg.cfo_range)
        x_ref, f_ref = newton_max(cost_derivatives, eps_c, lo, hi, cfg.cfo_tol)
        # keep the exact grid point when refinement cannot improve on it
        eps_hat.append(eps_c if lane_costs[b] >= f_ref else float(x_ref))
    eps = np.array(eps_hat).reshape(a.shape[:2])
    # each lane's exp(-j Omega eps s) over the slots, (K, S, lanes, L_p*beta)
    # products summed at its a, then the row phases
    weights = np.exp(-eps[..., np.newaxis] * turns)
    w = at_amplitude((weights[:, np.newaxis] @ rows).swapaxes(0, 1), a)
    w = w.reshape(eps.shape + bundle.scan_basis.shape[1:])
    w *= np.exp(-2j * np.pi / cfg.n_s * np.multiply.outer(eps, bundle.row_kappa))[..., np.newaxis]
    c_hat = bundle.solve(w.reshape(eps.shape + (-1,))).reshape(len(best), -1)
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

def estimator_bundle(cfg: SystemConfig, theta: int,
                     beta: int | None = None) -> BemRegressor:
    """The table (``BemRegressor``) of ``cfg`` at timing offset ``theta``
    and basis order ``beta`` (default ``cfg.beta``), fitted to the config's
    PCP (``pilot.make_pcp(zc_len, zc_root, pilot_power_db)``), built once
    and read by every user and trial."""
    # cached on every field the table reads: the user count, the pilot
    # Doppler offset, the SNR and the CFO grid (``lag_tables``) are left out
    return _cached_bundle(cfg.m, cfg.n, cfg.cp_len, cfg.zc_len, cfg.zc_root,
                          cfg.pilot_power_db, cfg.anchor,
                          cfg.beta if beta is None else beta, int(theta))


@functools.lru_cache(maxsize=256)
def _cached_bundle(m, n, cp_len, zc_len, zc_root, pilot_power_db, anchor, beta,
                   theta) -> BemRegressor:
    cfg = SystemConfig(m=m, n=n, cp_len=cp_len, zc_len=zc_len, zc_root=zc_root,
                       pilot_power_db=pilot_power_db, pilot_anchor=anchor)
    pcp = pilot.make_pcp(zc_len, zc_root, pilot_power_db)
    return build_bem_regressor(pilot.region_pilot(cfg, pcp), pilot.region_kappa(cfg, theta),
                               beta, m, cfg.n_s)


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
