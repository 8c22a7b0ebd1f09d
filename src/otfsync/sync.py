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
its own that already holds its noise and its CFO, read at a = 0.  The
filter bank and the PCP correlation are both circular filters of the
serialized stream, so ``timing_correlate`` takes every user's filtered
correlation of a stream's K rows as one weight on their M*N-point DFTs, and
each lane of the stream takes its timing curves from it at its a.  The
front end keeps the CP-removed rows and the curves, and the TO decisions of
every (lane, user) are one ``estimate_to`` call.  The users split after
that: ``pilot_regions`` passes only the L_p delay columns of a user's pilot
region at one theta_hat through that user's filter (``separate_user``),
and the draw keeps only those regions.  Each region is a polynomial in a
too, so the back end (``synchronize_user``: the shared table, CFO and
channel at one theta_hat) runs once for every stream and lane that reaches
that theta_hat, whichever draw and user they come from, one estimate per
lane at the lane's a (``estimate_cfo``); ``harness.score_block`` groups a
block of trials' draws by theta_hat.

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
are c = (C^-1 (x) I_beta) [R_j^-1 w[j]] = E w (``BemRegressor.coeffs``).

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
are made once for every a (``BemRegressor.cost_many``), a few streams at a
time.  Everything after them is made lane by lane in stacked products, one
slice per lane, so that each lane's arithmetic does not depend on the other
lanes searched with it: the scan, one Newton refinement of every lane at
once (``newton_max_many``) and the LS solve, a few lanes at a time
(``lane_coeffs``).
The channel estimate is never formed as tap trajectories: the table also
holds the Gram matrix B^T B of its basis, from which the harness scores the
coefficients in closed form (``harness.channel_nmse``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

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
#: bytes of the temporaries that the CFO search and the LS solve of many lanes
#: hold at once: ``estimate_cfo`` correlates as many streams per
#: ``BemRegressor.cost_many`` call, and ``lane_coeffs`` solves as many lanes
#: per ``BemRegressor.coeffs`` call, as fit in it
SEARCH_CHUNK_BYTES = 1 << 19
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


def separate_user(grid: np.ndarray, cfg: SystemConfig, user: int) -> np.ndarray:
    """User ``user``'s unit-gain brickwall filter of its Doppler band
    (``doppler_mask``) along the time slots of a slot-major (..., N, C) grid
    of any C delay columns, such as the (N, M) view of a serialized stream
    or a pilot region's L_p columns (``pilot_regions``); same shape out.

    One DFT over the slots, the band mask and one IDFT: a circulant filter
    of each column that reads no other column, so a column comes out the
    same bits whichever columns are filtered with it.  The whole bank runs
    inside the PCP correlation (``timing_correlate``).  The name stays
    because the benchmark's tracer wraps ``separate_user`` by name, until
    stage timing moves into the library (ROADMAP Direction 4).
    """
    grid = np.asarray(grid)
    if grid.ndim < 2 or grid.shape[-2] != cfg.n:
        raise ConfigError(f"expected a grid of {cfg.n} slots, got shape {grid.shape}")
    spectrum = np.fft.fft(grid, axis=-2)
    return np.fft.ifft(np.where(doppler_mask(cfg, user)[:, np.newaxis], spectrum, 0.0), axis=-2)


# ---------------------------------------------------------------------------
# timing-offset estimation
# ---------------------------------------------------------------------------

@dataclass
class ToEstimate:
    first_peak: int | np.ndarray   # threshold peak set, earliest offset
    max_peak: int | np.ndarray     # argmax variant


def timing_weights(pcp: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """The (Q, M*N) weights of ``timing_correlate``: row q is user q's band
    mask at f mod N (``doppler_mask``, so a bin past Q*band is in no row)
    times the conjugate M*N-point DFT of the PCP placed at delay rows
    delay_lo, delay_lo + 1, ... (mod M*N).  Built once per (geometry, PCP),
    read-only."""
    return _timing_weights(np.asarray(pcp, dtype=np.complex128).tobytes(), cfg.m, cfg.n,
                           cfg.num_users, cfg.band, cfg.delay_lo)


@functools.lru_cache(maxsize=32)
def _timing_weights(pcp: bytes, m: int, n: int, num_users: int, band: int,
                    lo: int) -> np.ndarray:
    taps = np.frombuffer(pcp, np.complex128)
    placed = np.zeros(m * n, dtype=complex)
    placed[(lo + np.arange(taps.size)) % (m * n)] = taps
    bins = np.arange(m * n) % n // band
    weights = np.where(bins == np.arange(num_users)[:, np.newaxis],
                       np.conj(np.fft.fft(placed)), 0.0)
    weights.flags.writeable = False
    return weights


def timing_correlate(stream: np.ndarray, pcp: np.ndarray,
                     cfg: SystemConfig) -> np.ndarray:
    """Every user's filtered lag correlation with the PCP of a CP-removed
    (M*N,) stream, as (Q, M*N), lag n*M + d at index n*M + d; a (..., M*N)
    stack of rows gives (..., Q, M*N).  It is linear in the stream
    (``timing_curve`` takes its magnitude).

    Assumes that the user's pilot occupies a single Doppler column k_q (as
    ``pilot.embed_pilots`` places it): the pilot block of time slot n in the
    delay-time grid is then pcp * exp(j 2 pi k_q n / N) / sqrt(N), one PCP
    times a phase common to the slot, and the phase drops out of the
    magnitude.  The correlation of user q's filtered stream s_q at lag
    n*M + d is therefore sum_z s_q[n*M + delay_lo + d + z] conj(pcp[z]),
    indices mod M*N: the window follows the serialized sample order instead
    of wrapping inside one slot (the delayed pilot of slot n spills past
    the slot boundary into the next slot's head, keeping the slot-n Doppler
    phase there, which keeps the full pilot coherent at every candidate
    lag), and the frame CP makes the last slot wrap to the first.

    Both steps are circular over the M*N serialized samples: user q's
    filter (``separate_user``), a circular convolution with a kernel on the
    multiples of M, keeps the bins f of the M*N-point DFT whose f mod N is
    in its band, and the correlation multiplies by the conjugate DFT of the
    placed PCP.  So it is one DFT per row, times the ``timing_weights``,
    and one inverse DFT per user.
    """
    stream = np.asarray(stream)
    if stream.shape[-1] != cfg.m * cfg.n:
        raise ConfigError(f"expected {cfg.m * cfg.n} samples, got {stream.shape[-1]}")
    return np.fft.ifft(np.fft.fft(stream)[..., np.newaxis, :] * timing_weights(pcp, cfg))


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

def extract_pilot_region(columns: np.ndarray, theta_hat: int,
                         cfg: SystemConfig) -> np.ndarray:
    """The (N, L_p) pilot region at timing offset ``theta_hat`` from the
    slot-major (N, L_p) grid of its delay columns, column j the delay row
    ``pilot.region_index`` mod M of region row j: sample (n, j) is slot
    ``region_index`` // M of column j, which wraps past the frame's end to
    its head.  A (..., N, L_p) stack gives (..., N, L_p)."""
    columns = np.asarray(columns)
    if columns.shape[-2:] != (cfg.n, cfg.zc_len):
        raise ConfigError(f"expected (..., {cfg.n}, {cfg.zc_len}), got {columns.shape}")
    return columns[..., pilot.region_index(cfg, theta_hat) // cfg.m, np.arange(cfg.zc_len)]


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
    coefficients, and the (beta, beta) Gram matrix
    G = sum_(n, j) B[n, j]^T B[n, j] of the basis, with which
    ||B c - h||^2 needs no tap trajectories (``harness.channel_nmse``).  Its
    row bases take about 20 KB at the default geometry, where a table of
    rotations would take G*N*L_p phases."""

    bem: np.ndarray = field(repr=False)           # (N, L_p, beta) basis values
    scan_basis: np.ndarray = field(repr=False)    # (V, L_p, beta) Q_j rows per virtual slot
    scan_index: np.ndarray = field(repr=False)    # (V, L_p) region index per virtual slot
    row_kappa: np.ndarray = field(repr=False)     # (L_p,) kappa of each row at virtual slot 0
    gram: np.ndarray = field(repr=False)          # (beta, beta) B^T B
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

    def coeffs(self, z: np.ndarray, slot_phase: np.ndarray | None = None,
               row_phase: np.ndarray | None = None) -> np.ndarray:
        """LS coefficient solve of one region z (N*L_p samples in region
        order), or of each row of a (lanes, N*L_p) stack, as one (L_p*beta,)
        or (lanes, L_p*beta) array: E times the projection w, the slot rows
        summed over the slots as one (1, V) @ (V, beta) product per region
        and delay row; each region as it would be alone.

        With ``slot_phase`` (lanes, V) and ``row_phase`` (lanes, L_p) the
        regions are first de-rotated by the CFO rotation that factors into
        them (``build_bem_regressor``): the slot phase weighs each virtual
        slot before the sum, and the row phase multiplies each row's w."""
        z = np.asarray(z)
        regions = z.reshape(-1, z.shape[-1])[:, self.scan_index]      # (lanes, V, L_p)
        if slot_phase is not None:
            regions = regions * slot_phase[:, :, np.newaxis]
        w = regions.swapaxes(1, 2)[:, :, np.newaxis] @ self.scan_basis.transpose(1, 0, 2)
        if row_phase is not None:
            w *= row_phase[:, :, np.newaxis, np.newaxis]
        return (w.reshape(len(regions), 1, -1) @ self._solve.T).reshape(z.shape[:-1] + (-1,))


def build_bem_regressor(p: np.ndarray, kappa: np.ndarray, beta: int, m: int,
                        n_s: int) -> BemRegressor:
    """The ``BemRegressor`` of the template 1 (x) p on the basis of order
    ``beta`` (``build_bem_basis``) at the (N, L_p) region sample indices
    ``kappa`` of a frame of ``n_s`` samples and M = ``m`` delay bins.

    The fit is factorized row by row: one stacked QR of the L_p row matrices
    B_j, the rank checks of R_j and of the pilot circulant C through its
    eigenvalues FFT(p), and E[(l, g), (j, k)] = C^-1[l, j] R_j^-1[g, k].
    The Gram matrix of the basis is one (beta, N*L_p) @ (N*L_p, beta)
    product.

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
    flat = bem.reshape(n_rows, beta)
    return BemRegressor(bem=bem, scan_basis=scan_basis, scan_index=scan_index,
                        row_kappa=kappa[0] + first * m, gram=flat.T @ flat,
                        _solve=solve.reshape(n_cols, n_cols))


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


def newton_max_many(fun, x: np.ndarray, lo: np.ndarray, hi: np.ndarray, tol: float):
    """Safeguarded Newton ascent of every lane at once, lane p on
    [lo[p], hi[p]] from x[p], where fun(x, lanes) returns the arrays
    (f, f', f'') of the lanes ``lanes`` (indices) at their points ``x``;
    returns the best evaluated (x, f) of each lane.

    Per lane: the sign of f' shrinks the bracket [a, b].  A step that is not
    an ascent step (f'' >= 0), or that leaves the bracket through an end
    already evaluated, becomes a bisection, i.e. a half-bracket step along
    f'; any other step is clamped to the bracket.  A lane stops at a step
    below NEWTON_STEP_FRAC * tol, at f' = 0 (or NaN) or after
    NEWTON_MAX_ITER evaluations, and is not evaluated again; each lane
    takes the steps it would take alone.
    """
    x = np.array(x, dtype=float)
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    a_seen, b_seen = np.zeros(x.shape, dtype=bool), np.zeros(x.shape, dtype=bool)
    x_best, f_best = x.copy(), np.full(x.shape, -math.inf)
    active = np.arange(x.size)
    for _ in range(NEWTON_MAX_ITER):
        if not active.size:
            break
        xa = x[active]
        f, f1, f2 = fun(xa, active)
        better = f > f_best[active]
        x_best[active[better]], f_best[active[better]] = xa[better], f[better]
        up, down = f1 > 0, f1 < 0
        a[active[up]], a_seen[active[up]] = xa[up], True
        b[active[down]], b_seen[active[down]] = xa[down], True
        lo_a, hi_b = a[active], b[active]
        concave = f2 < 0
        target = xa - np.divide(f1, f2, out=np.zeros_like(f1), where=concave)
        bisect = (~concave | ((target >= hi_b) & b_seen[active])
                  | ((target <= lo_a) & a_seen[active]))
        target[bisect] = 0.5 * (lo_a + hi_b)[bisect]
        x_next = np.minimum(np.maximum(target, lo_a), hi_b)
        go = (up | down) & ~(np.abs(x_next - xa) < NEWTON_STEP_FRAC * tol)
        x[active[go]] = x_next[go]
        active = active[go]
    return x_best, f_best


@dataclass
class CfoEstimate:
    epsilon_hat: float
    grid: np.ndarray         # coarse search points
    cost_curve: np.ndarray   # cost at each grid point
    c_hat: np.ndarray        # (L_p * beta,) basis coefficients


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


def lane_regions(samples: np.ndarray, stream, amplitude) -> np.ndarray:
    """The (lanes, N, L_p) region of each lane: the K rows of its stream
    ``stream[p]`` of the (S, K, N, L_p) ``samples``, read at its noise
    amplitude ``amplitude[p]`` (``at_amplitude``)."""
    rows = np.asarray(samples)[stream].swapaxes(0, 1)
    return at_amplitude(rows, np.asarray(amplitude, dtype=float)[:, np.newaxis, np.newaxis])


def lane_coeffs(bundle: BemRegressor, samples: np.ndarray, stream, amplitude,
                slot_phase: np.ndarray | None = None,
                row_phase: np.ndarray | None = None) -> np.ndarray:
    """The (lanes, L_p*beta) LS coefficients of each lane's region
    (``lane_regions``), de-rotated by its slot and row phases if given
    (``BemRegressor.coeffs``): as many lanes per solve as keep the gathered
    rows, the lane regions and their virtual-slot copies within
    SEARCH_CHUNK_BYTES."""
    samples, stream = np.asarray(samples), np.asarray(stream)
    k, size = samples.shape[1], samples[0, 0].size
    step = max(1, SEARCH_CHUNK_BYTES // (16 * (k + 3) * size))
    parts = [slice(start, start + step) for start in range(0, len(stream), step)]
    return np.concatenate([
        bundle.coeffs(lane_regions(samples, stream[part], amplitude[part]).reshape(-1, size),
                      None if slot_phase is None else slot_phase[part],
                      None if row_phase is None else row_phase[part])
        for part in parts])


def estimate_cfo(samples: np.ndarray, bundle: BemRegressor, cfg: SystemConfig,
                 amplitudes, stream) -> list[CfoEstimate]:
    """The CFO search of the lanes of a region stack (``stack_regions``), in
    the frame of the table's template (``derotate``): the (S, K, N, L_p)
    ``samples`` hold S regions (streams), each kept as a polynomial in the
    noise amplitude a (row k the coefficient of a^k), and lane p reads
    stream ``stream[p]`` at a = ``amplitudes[p]``.  One ``CfoEstimate`` per
    lane, in the order of the lanes: coarse scan of the projection cost over
    the config's grid, Newton refinement on [best grid point +- cfo_step]
    within +-cfo_range (stopping at steps below NEWTON_STEP_FRAC * cfo_tol),
    then the LS coefficient solve at the winning offset, all on the table
    ``bundle`` (``estimator_bundle``) and the ``lag_tables`` of its V slots.

    The rotation of a sample factors into a row phase and
    exp(-j Omega eps s) at its virtual slot s (``build_bem_regressor``), so
    the projection of the rotated region is
    w[j, k] = exp(-j 2 pi eps row_kappa[j] / N_s) sum_s exp(-j Omega eps s) Y[s, j, k]
    for the slot rows Y[s, (j, k)] = Q_j[n, k] rbar[n, j]
    (``BemRegressor.slot_rows``).  The row phase has modulus 1 and drops out
    of ||w||^2, so the cost is exactly
    g(eps) = sum_(j, k) |sum_s exp(-j Omega eps s) Y[s, j, k]|^2
    = Re sum_d c_d exp(-j Omega eps d), a trigonometric polynomial of degree
    V - 1 whose coefficients are the slot-lag correlations of Y
    (``BemRegressor.cost_many``, made here so that the benchmark's tracer
    times it inside the search).  They are polynomials in a, made once per
    stream, a few streams per call so that the lag temporaries stay within
    SEARCH_CHUNK_BYTES.  Each lane's c is its powers a^i times its stream's
    coefficients, in [Re, Im] interleaved reals, and its cost curve is c
    times the grid's phasors.  Every lane's Newton iterate reads g, g' and
    g'' as one (3, 2V) array (that lane's c times the ``lag_tables``
    factors) times the phasors at its eps (``lag_phasors``), and all lanes
    refine at once (``newton_max_many``).  The LS solve de-rotates each
    lane's region (``lane_regions``) by its estimate, a few lanes per solve
    (``lane_coeffs``).  Every product after the correlations is a stacked
    call with one slice per lane, which gives each lane the arithmetic of
    its search alone, whichever lanes are searched with it.
    """
    grid, turns, lag_derivs, grid_phasors = lag_tables(
        len(bundle.scan_index), cfg.m, cfg.n_s, cfg.cfo_range, cfg.cfo_step)
    a = np.asarray(amplitudes, dtype=float)
    k, v = samples.shape[1], len(turns)
    chunk = max(1, SEARCH_CHUNK_BYTES // (16 * k * k * v * 2 * v))
    lag_rows = np.concatenate([bundle.cost_many(bundle.slot_rows(samples[start:start + chunk]))
                               for start in range(0, len(samples), chunk)])   # (S, 2K - 1, V)
    powers = a[:, np.newaxis, np.newaxis] ** np.arange(2 * k - 1)            # (lanes, 1, 2K - 1)
    lags = powers @ lag_rows.view(np.float64)[stream]                        # (lanes, 1, 2V)
    costs = (lags @ grid_phasors)[:, 0]
    best = np.argmax(costs, axis=-1)
    eps_c = grid[best]
    derivs = (lags.view(np.complex128) * lag_derivs).view(np.float64)        # (lanes, 3, 2V)

    def cost_derivatives(eps, lanes):
        return (derivs[lanes] @ lag_phasors(eps[:, np.newaxis], turns)[..., np.newaxis])[..., 0].T

    x_ref, f_ref = newton_max_many(cost_derivatives, eps_c,
                                   np.maximum(eps_c - cfg.cfo_step, -cfg.cfo_range),
                                   np.minimum(eps_c + cfg.cfo_step, cfg.cfo_range), cfg.cfo_tol)
    # keep the exact grid point when refinement cannot improve on it
    eps = np.where(costs[np.arange(len(a)), best] >= f_ref, eps_c, x_ref)
    c_hat = lane_coeffs(bundle, samples, stream, a,
                        slot_phase=np.exp(-eps[:, np.newaxis] * turns),
                        row_phase=np.exp(-2j * np.pi / cfg.n_s
                                         * np.multiply.outer(eps, bundle.row_kappa)))
    return [CfoEstimate(epsilon_hat=eps, grid=grid, cost_curve=lane_costs, c_hat=c)
            for eps, lane_costs, c in zip(eps.tolist(), costs, c_hat)]


# no program path calls this; TRACED in perfbench/tracing.py names it, so a
# traced run needs it, and the tests score the closed form against it
def reconstruct_channel(c_hat: np.ndarray, bem: np.ndarray) -> np.ndarray:
    """Tap trajectories over the pilot region from basis coefficients.

    Returns h[n, l, j] = sum_g T_g(kprime[n, j]) c[l*beta + g] for taps
    l = 0..L_p-1 and every time slot n, C-ordered like the truth taps
    (``harness.true_pilot_taps``); a (..., L_p*beta)
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
    ``amplitude[p]``.  A stream is K CP-removed rows of ``rows``, row k the
    coefficient of a^k in the received quantity at noise amplitude a
    (``at_amplitude``); no user is separated from them until its pilot
    region is read (``pilot_regions``).  Either every lane reads one
    stream, or each lane has a stream of its own.  ``cfg`` is the geometry
    of every lane (the lanes differ in the SNR and the pinned CFO alone).
    ``curves`` and ``to_estimate`` are every lane's timing curves and TO
    decisions.  Frozen: ``pilot_regions`` only reads it."""

    cfg: SystemConfig
    rows: np.ndarray                # (S, K, M*N) CP-removed received rows
    stream: np.ndarray              # (P,) the stream index of each lane
    amplitude: np.ndarray           # (P,) the noise amplitude a of each lane
    curves: np.ndarray              # (P, Q, M) timing curves
    to_estimate: ToEstimate         # (P, Q) TO decisions


def front_end(streams: np.ndarray, stream, amplitude, pcp: np.ndarray,
              cfg: SystemConfig) -> FrontEnd:
    """The ``FrontEnd`` of the (S, K, N_s) received streams ``streams``,
    whose lane p reads stream ``stream[p]`` at noise amplitude
    ``amplitude[p]``.  The timing-offset margin and the rest of the CP are
    removed from every row, a view of ``streams``.  One stream at a time,
    the filtered PCP correlation of its K rows (``timing_correlate``) gives
    each of its lanes its timing curves at its a and is dropped.  The TO
    decisions of every (lane, user) are one ``estimate_to`` call."""
    stream, amplitude = np.asarray(stream, dtype=np.intp), np.asarray(amplitude, dtype=float)
    rows = modem.remove_cp(streams[..., cfg.theta_max:], cfg.cp_rem, out_len=cfg.m * cfg.n)
    curves = np.empty((len(stream), cfg.num_users, cfg.m))
    for s, row in enumerate(rows):
        corr = timing_correlate(row, pcp, cfg)
        for lane in np.flatnonzero(stream == s):
            curves[lane] = timing_curve(at_amplitude(corr, amplitude[lane]), cfg)
    return FrontEnd(cfg=cfg, rows=rows, stream=stream, amplitude=amplitude,
                    curves=curves, to_estimate=estimate_to(curves, cfg))


def pilot_regions(front: FrontEnd, user: int, theta: int,
                  lanes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """User ``user``'s pilot regions at timing offset ``theta`` for the
    lanes ``lanes`` (ascending lane indices of the front end, those whose
    theta_hat is ``theta``), as the back end reads them: the (S, K, N, L_p)
    regions of the streams that the lanes read, de-rotated by the user's
    slot phase (``derotate``) into the frame of the table that all users
    share, each lane's stream index into them, and each lane's noise
    amplitude a.  Only the region's L_p delay columns of the slot-major
    (N, M) rows pass the user's filter (``separate_user``), which filters
    each column alone: the same bits as the whole separated stream's."""
    cfg, lanes = front.cfg, np.asarray(lanes, dtype=np.intp)
    stream, amplitude = front.stream[lanes], front.amplitude[lanes]
    # the lanes share one stream or each have their own
    streams = sorted(set(stream.tolist()))
    grid = front.rows.reshape(front.rows.shape[:-1] + (cfg.n, cfg.m))
    columns = grid[..., pilot.region_index(cfg, theta)[0] % cfg.m][streams]
    region = extract_pilot_region(separate_user(columns, cfg, user), theta, cfg)
    return derotate(region, cfg, user), np.searchsorted(streams, stream), amplitude


def stack_regions(regions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Several ``pilot_regions`` results, (samples, stream, amplitude) each,
    as one of the same form, which the back end (``synchronize_user``) and
    the absorbed fit (``harness.absorbed_channel_fit``) read: their
    (S, K, N, L_p) samples stacked, and each lane's stream index into the
    stack and amplitude, lane by lane in their order."""
    samples, stream, amplitude = zip(*regions)
    starts = np.cumsum([0] + [len(part) for part in samples[:-1]])
    return (np.concatenate(samples),
            np.concatenate([part + start for part, start in zip(stream, starts)]),
            np.concatenate(amplitude))


def synchronize_user(regions, theta: int, cfg: SystemConfig) -> list[CfoEstimate]:
    """The back end of the receiver at timing offset ``theta``: one
    ``CfoEstimate`` per lane of the region stack ``regions``, a (samples,
    stream, amplitude) triple of ``pilot_regions`` or ``stack_regions``, in
    the order of its lanes.  One ``estimate_cfo`` on the table at ``theta``,
    which every user shares, so that the regions may come from any users
    and draws.  The name stays because the benchmark's tracer wraps
    ``synchronize_user`` by name, until stage timing moves into the library
    (ROADMAP Direction 4)."""
    samples, stream, amplitude = regions
    return estimate_cfo(samples, estimator_bundle(cfg, theta), cfg, amplitude, stream)
