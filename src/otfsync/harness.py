"""Monte Carlo experiment engine.

Draws trials, runs the full transmit -> channel -> receive -> estimate
pipeline, and writes CSV result tables.  A trial gives one
``UserTrialRecord`` per user.  A sweep point is a table of (trials, Q) numpy
columns, one per record field: each aggregate row is one reduction of one
user's column, and the failure counts and the ``per-trial.jsonl`` dump read
the same table.  Every random draw in trial ``k`` comes from the stream
seeded with (rng_seed, k), so trials are order-independent, parallel-safe,
and exactly reproducible.

A sweep runs with the trial index outermost.  Each trial index has one
``TrialDraw`` at a time: its channel, offsets, frames, noiseless receive
stream and unit noise, shared by the run of consecutive points that leave
it unchanged (``draw_runs``), and a receive front end (``sync.front_end``)
with one lane per point of the run.  The draw makes the received streams
that the front end reads, and which of them each lane reads at which noise
amplitude a.  An SNR sweep changes only a, and the receiver is linear in
the stream up to its two nonlinear steps (``sync``), so its points share
one stream of two rows, the signal and the unit noise, each lane at its a.
A ``cfo_value`` sweep changes only the CFO, pinned to the same value for
every user, so it factors out of the channel's user sum: the stream at CFO
eps is the draw's zero-CFO stream times exp(j 2 pi eps kappa / N_s).  That
rotation does not commute with the filter bank, so each of its points is a
lane with a stream of its own, the rotated stream with its noise added,
whose filtered PCP correlation the front end takes lane by lane.  A lone
point is such a lane, unrotated.  The front end takes every (point, user)'s
TO decision in one pass when the draw is made, and keeps the CP-removed
streams, from which each user's pilot regions are filtered later.
``run_trial`` runs once per point and trial.  The ``nu_max_t`` and
``pilot_power_db`` sweeps change the channel or the pilots, so each of
their points has a draw of its own.

The unit of scoring is a block of BLOCK_TRIALS consecutive trial indices,
whose boundaries depend on the trial index alone (``run_point``), and
``run_trial`` reads only blocks (``TrialBlock``).  The block's draws are
made one at a time (``draw_block``), and of each only what scoring reads
is kept (``ScoringInputs``): each lane's records, with the truth and the
TO decisions written in when they are made, each (user, theta_hat)
group's de-rotated pilot regions, filtered from the streams' delay columns
of the region alone, and lane amplitudes (``sync.pilot_regions``), the
truth's projection p = B^T h on the basis B of the table at that theta_hat
and the truth energy ||h||^2.  The block's first ``run_trial`` scores
every lane of every draw of it (``score_block``): the regions of every
draw, user and lane that reaches a theta_hat are stacked once
(``sync.stack_regions``), and the back end (``sync.synchronize_user``) and
the absorbed baseline fit that one stack.  Each estimate is scored from
its coefficients c in closed form, sum_l (c_l^H G c_l - 2 Re c_l^H p_l) +
||h||^2 with the table's Gram matrix G = B^T B (``channel_nmse``), so that
no tap trajectory is built.  Every lane's arithmetic is that of the lane
scored alone, so the records do not depend on the block size, nor on the
worker count.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import channel as chan
from . import modem, pilot, sync
from .config import (BEM_ORDER_CAP, SystemConfig, apply_overrides, bem_order_bound,
                     coerce, echo_config, parse_lines)
from .errors import ConfigError, OtfsyncError

SWEEP_VARS = ("snr_db", "nu_max_t", "cfo_value", "pilot_power_db")
TO_VARIANTS = ("first-peak", "max-peak")


# ---------------------------------------------------------------------------
# single trial
# ---------------------------------------------------------------------------

@dataclass
class UserTrialRecord:
    user: int
    theta_true: int = 0
    theta_first: int = 0
    theta_max: int = 0
    eps_true: float = 0.0
    eps_hat: float = math.nan
    nmse: float = math.nan
    nmse_absorbed: float = math.nan
    failed: bool = False
    error: str = ""


def json_line(fields: dict) -> str:
    """``fields`` as one line of strict JSON with sorted keys.  A non-finite
    float is written as null, as JSON has no NaN or Infinity (RFC 8259):
    a NaN is an estimate that a failed or skipped stage never made, an
    infinity a sweep point such as snr_db = inf."""
    return json.dumps({key: None if isinstance(value, float) and not math.isfinite(value)
                       else value for key, value in fields.items()},
                      sort_keys=True, allow_nan=False)


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based stream: (seed, trial_index) determines every draw; a
    negative trial index is a ConfigError."""
    if trial_index < 0:
        raise ConfigError(f"trial index must be >= 0, got {trial_index}")
    return np.random.default_rng([seed, trial_index])


def true_pilot_taps(paths: chan.PathSet, cfg: SystemConfig, theta: int) -> np.ndarray:
    """Ground-truth taps h[n, l, j] over the pilot region at true alignment,
    C-contiguous."""
    kappa = pilot.region_kappa(cfg, theta)
    return np.ascontiguousarray(paths.taps(kappa, cfg.zc_len).transpose(1, 0, 2))


def truth_projection(bem: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """p[l, g] = sum_(n, j) B[n, j, g] h[n, l, j], the projection of the
    (N, L_p, L_p) truth taps h (``true_pilot_taps``) on the (N, L_p, beta)
    basis B of a table, as (L_p, beta): one real (beta, N*L_p) @
    (N*L_p, 2 L_p) product on the [Re, Im] interleaved taps."""
    n, lp, beta = bem.shape
    taps = np.ascontiguousarray(truth.transpose(0, 2, 1)).reshape(n * lp, lp)
    return (bem.reshape(n * lp, beta).T @ taps.view(np.float64)).view(np.complex128).T


def channel_nmse(c_hat: np.ndarray, gram: np.ndarray, proj: np.ndarray,
                 energy: np.ndarray) -> np.ndarray:
    """||B c - h||^2 / ||h||^2 of each lane, from its (L_p*beta,) basis
    coefficients c (a row of ``c_hat``), the Gram matrix G = B^T B of the
    table's basis (``sync.BemRegressor.gram``), the truth's projection
    p = B^T h (``truth_projection``, a (lanes, L_p, beta) stack) and the
    truth energy ||h||^2 (``energy``, one per lane), in closed form:

        ||B c - h||^2 = sum_l (c_l^H G c_l - 2 Re c_l^H p_l) + ||h||^2,

    the tap trajectories B c being those of ``sync.reconstruct_channel``.
    One (L_p, beta) @ (beta, beta) product per lane; NaN for an all-zero
    truth."""
    c = c_hat.reshape(proj.shape)
    error = np.einsum("plg,plg->p", c.conj(), c @ gram - 2.0 * proj).real + energy
    return np.divide(error, energy, out=np.full(error.shape, math.nan), where=energy != 0)


def absorbed_beta(cfg: SystemConfig) -> int:
    """Basis order for the CFO-absorbed baseline, from the config alone, as a
    receiver that skips the CFO search knows no CFO: the channel-only order,
    inflated to cover the largest compound Doppler spread of a CFO draw,
    nu_max_t + cfo_max, capped at BEM_ORDER_CAP and at n (a larger order
    leaves the fit underdetermined)."""
    bound = bem_order_bound(cfg.nu_max_t + cfg.cfo_max)
    return max(cfg.beta, min(BEM_ORDER_CAP, cfg.n, bound))


def absorbed_channel_fit(regions, cfg: SystemConfig, theta: int, beta: int) -> np.ndarray:
    """Baseline fit with the CFO left inside the channel (search disabled):
    the LS solve of order ``beta`` (``absorbed_beta``) runs at zero offset
    against the Doppler-free template 1 (x) p, on the region of each lane of
    the region stack ``regions``, the (samples, stream, amplitude) triple
    that the back end reads (``sync.synchronize_user``), already de-rotated
    by its user's slot phase and read at its noise amplitude
    (``sync.lane_regions``), as (lanes, L_p*beta) basis coefficients.  It
    reads the table of order ``beta`` (``sync.estimator_bundle``), not the
    search's.  At zero offset no rotation is needed, so the fit is the
    regions' slot rows summed over the slots, one (L_p*beta)-square matrix
    product per region (``sync.lane_coeffs``)."""
    return sync.lane_coeffs(sync.estimator_bundle(cfg, theta, beta=beta), *regions)


@dataclass(frozen=True)
class TrialDraw:
    """Everything a trial draws: the realization, the noiseless receive
    stream of ``channel.apply_channel``, each user's ``true_pilot_taps`` at
    its true timing offset and their energy, which every point scores its
    estimate against (``scoring_inputs``), and the unit noise
    (``channel.unit_noise``) that the draw scales to each point's SNR.

    ``lanes`` holds the distinct (SNR, pinned CFO) of the points the draw
    serves, and ``front`` is the receive front end (``sync.front_end``)
    with lane p at ``lanes[p]``, which makes every point's TO decisions with
    the draw.  Scoring reads the draw through its ``scoring_inputs``, in a
    block (``draw_block``).  A pinned draw's realization has zero CFOs and
    ``rx`` is the zero-CFO stream: a pinned CFO eps, the same for every
    user, is the rotation exp(j 2 pi eps kappa / N_s) of that stream, which
    ``draw_trial`` applies lane by lane.  So a pinned draw's realization
    depends neither on ``cfg.snr_db`` nor on the pinned values.  Its arrays
    (``pcp``, the offsets, ``rx``, ``noise``, ``truth`` and the front end's
    CP-removed streams and timing curves) are read-only."""

    pcp: np.ndarray
    realization: chan.ChannelRealization
    rx: np.ndarray
    noise: np.ndarray
    truth: tuple[np.ndarray, ...]
    truth_energy: tuple[float, ...]
    lanes: tuple[tuple[float, float | None], ...]
    front: sync.FrontEnd


def draw_trial(cfg: SystemConfig, trial_index: int, lanes=None) -> TrialDraw:
    """Trial ``trial_index``'s draw (``TrialDraw``): the channel, offsets,
    frames and unit noise from ``trial_rng``, the frames transmitted and
    passed through the channel once over all users, and the front end with
    one lane per distinct (snr_db, cfo_value) in ``lanes``, those of the
    points the draw serves (default: ``cfg.snr_db`` at the drawn CFO, a
    cfo_value of None).  The cfo_values are all None or all pinned
    (``draw_runs``); pinned, the CFO draw is discarded and the channel runs
    at zero CFO.

    Two or more unpinned lanes share one stream of two rows, the receive
    stream and the unit noise, each lane at its ``channel.noise_amplitude``.
    Otherwise each lane has a stream of its own, read at a = 0: the receive
    stream rotated by its pinned CFO (``channel.cfo_rotation``), if any,
    with its noise added (``channel.add_awgn``), built one lane at a time.
    A config that ``SystemConfig.validate`` rejects raises its ``ConfigError``
    here, before anything is drawn."""
    cfg.validate()
    lanes = tuple(dict.fromkeys([(cfg.snr_db, None)] if lanes is None else lanes))
    for _, cfo in lanes:
        # pinned as every user's CFO directly, past the config's cfo_max check
        if cfo is not None and (violation := cfg.cfo_violation("cfo_value", cfo)):
            raise ConfigError(violation)
    rng = trial_rng(cfg.rng_seed, trial_index)
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)

    realization = chan.draw_realization(rng, cfg)
    if any(cfo is not None for _, cfo in lanes):
        realization.cfo[:] = 0.0

    # the front end runs once on (Q, ...) arrays; the users split after timing.
    # Each user's data fills the Doppler band that its receive filter passes.
    bands = sync.doppler_mask(cfg, np.arange(cfg.num_users)[:, np.newaxis])
    frames = [modem.build_data_frame(rng, cfg.m, cfg.n, band, pilot.guard_rows(cfg))
              for band in bands]
    frames = pilot.embed_pilots(frames, cfg, pcp)
    streams = modem.transmit(frames, cfg.cp_len)
    rx = chan.apply_channel(streams, realization, cfg.n_s, cfg.theta_max)
    noise = chan.unit_noise(rng, rx.shape)
    truth = tuple(true_pilot_taps(paths, cfg, int(theta))
                  for paths, theta in zip(realization.paths, realization.to))
    truth_energy = tuple(float(np.vdot(taps, taps).real) for taps in truth)
    if len(lanes) > 1 and all(cfo is None for _, cfo in lanes):
        received = np.stack([rx, noise])[np.newaxis]
        stream = np.zeros(len(lanes), dtype=np.intp)
        amplitude = [chan.noise_amplitude(snr) for snr, _ in lanes]
    else:
        received = np.empty((len(lanes), 1, rx.size), dtype=complex)
        for lane, (snr, cfo) in enumerate(lanes):
            signal = rx if cfo is None else rx * chan.cfo_rotation(cfo, cfg.n_s)
            received[lane, 0] = chan.add_awgn(signal, snr, noise)
        stream, amplitude = np.arange(len(lanes)), np.zeros(len(lanes))
    front = sync.front_end(received, stream, amplitude, pcp, cfg)
    for array in (pcp, realization.to, realization.cfo, rx, noise, *truth, front.rows,
                  front.curves):
        array.flags.writeable = False
    return TrialDraw(pcp=pcp, realization=realization, rx=rx, noise=noise, truth=truth,
                     truth_energy=truth_energy, lanes=lanes, front=front)


@dataclass(frozen=True)
class PilotGroup:
    """One user's lanes of a draw that reach one theta_hat, as scoring reads
    them: the lanes' streams' de-rotated (S, K, N, L_p) pilot regions, each
    lane's stream index into them and noise amplitude a (``regions``, of
    ``sync.pilot_regions``), the user's truth energy ||h||^2, and the
    truth's projection p = B^T h on the basis of the table at that
    theta_hat (``truth_projection``): (L_p, beta) for the compensated
    estimate, and per lane (lanes, L_p, absorbed beta) on the absorbed
    baseline's basis, which compares its fit with the truth times the
    lane's true CFO rotation, or None without the absorbed baseline."""

    lanes: list[int]
    regions: tuple[np.ndarray, np.ndarray, np.ndarray]
    energy: float
    proj: np.ndarray
    proj_absorbed: np.ndarray | None


@dataclass(frozen=True)
class ScoringInputs:
    """What scoring reads of trial ``trial``'s draw (``scoring_inputs``):
    its lanes, each lane's Q records with the true timing offsets and CFOs
    and the front end's TO decisions filled in, the (user, theta_hat)
    groups (``PilotGroup``) and, for a debug dump, the timing curves."""

    trial: int
    lanes: tuple[tuple[float, float | None], ...]
    records: list[list[UserTrialRecord]]    # (P, Q)
    groups: dict[tuple[int, int], PilotGroup]
    curves: np.ndarray | None               # (P, Q, M) under a debug dump


def scoring_inputs(cfg: SystemConfig, draw: TrialDraw, trial_index: int, absorbed: bool,
                   debug: bool, bases: dict) -> ScoringInputs:
    """The ``ScoringInputs`` of ``draw``, trial ``trial_index``'s: each
    lane's records hold the truth and the front end's TO decisions, which
    a failed search keeps; each user's lanes are grouped by theta_hat, or
    form one group at the true offset under ``genie_to``, and each group
    keeps its regions and the truth's projections on the bases of the
    tables it is scored on.  The bases are those of ``sync.estimator_bundle``,
    made here from the region's sample indices (``sync.build_bem_basis``)
    rather than fetched with their tables, so that each table is built by
    the back end that searches on it and its build is timed with the
    scoring; ``bases`` holds them by (theta_hat, beta) across the draws of
    a block."""

    def basis(theta, beta):
        if (theta, beta) not in bases:
            bases[theta, beta] = sync.build_bem_basis(beta, pilot.region_kappa(cfg, theta),
                                                      cfg.n_s)
        return bases[theta, beta]

    realization, front = draw.realization, draw.front
    theta_true = realization.to.tolist()
    first = front.to_estimate.first_peak
    records = [[UserTrialRecord(user=q, theta_true=theta_true[q], theta_first=theta_first[q],
                                theta_max=theta_max[q], eps_true=float(eps))
                for q, eps in enumerate(realization.cfo if pinned is None
                                        else [pinned] * cfg.num_users)]
               for (_, pinned), theta_first, theta_max in zip(
                   draw.lanes, first.tolist(), front.to_estimate.max_peak.tolist())]
    groups = {}
    for q in range(cfg.num_users):
        truth = draw.truth[q]
        thetas = np.full(len(draw.lanes), theta_true[q]) if cfg.genie_to else first[:, q]
        for theta in dict.fromkeys(thetas.tolist()):
            lanes = np.flatnonzero(thetas == theta)
            proj_absorbed = None
            if absorbed:
                # the CFO-absorbed compound taps h[l, kappa] exp(j 2 pi eps kappa / N_s),
                # one per distinct CFO of the lanes
                kappa = pilot.region_kappa(cfg, theta_true[q])
                bem = basis(theta, absorbed_beta(cfg))
                eps = [records[lane][q].eps_true for lane in lanes]
                by_eps = {value: truth_projection(
                    bem, truth * sync.cfo_phase(kappa, value, cfg.n_s)[:, np.newaxis, :])
                          for value in dict.fromkeys(eps)}
                proj_absorbed = np.stack([by_eps[value] for value in eps])
            groups[q, theta] = PilotGroup(
                lanes=lanes.tolist(), regions=sync.pilot_regions(front, q, theta, lanes),
                energy=draw.truth_energy[q], proj=truth_projection(basis(theta, cfg.beta), truth),
                proj_absorbed=proj_absorbed)
    return ScoringInputs(trial=trial_index, lanes=draw.lanes, records=records, groups=groups,
                         curves=front.curves if debug else None)


@dataclass
class TrialBlock:
    """The scoring inputs of a block of trials' draws (``draw_block``), all
    drawn for one config and lane table, and whether they hold what the
    absorbed baseline and a debug dump read.  ``scored`` is empty until the
    block's first ``run_trial``, which scores every lane of every draw in
    one pass (``score_block``) and keeps each lane's records and debug
    entries there, keyed by (trial, (snr_db, cfo_value)), for the other
    points and trials to read."""

    draws: list[ScoringInputs]
    absorbed: bool
    debug: bool
    scored: dict = field(default_factory=dict, repr=False)


def draw_block(cfg: SystemConfig, trials, lanes=None, *, absorbed: bool = False,
               debug: bool = False) -> TrialBlock:
    """The ``TrialBlock`` of trial indices ``trials``: each draw
    (``draw_trial``, with the lanes ``lanes``) is made and reduced to its
    ``scoring_inputs`` before the next is made."""
    bases = {}
    return TrialBlock(draws=[scoring_inputs(cfg, draw_trial(cfg, k, lanes), k, absorbed, debug,
                                            bases) for k in trials],
                      absorbed=absorbed, debug=debug)


def run_trial(cfg: SystemConfig, trial_index: int, *, cfo_value: float | None = None,
              absorbed: bool = False, collect_debug: bool = False,
              block: TrialBlock | None = None):
    """Run one end-to-end trial of one point; returns its Q records and its
    debug entries.

    Per-user estimation failures become failed records, never exceptions.
    ``cfo_value`` pins every user's CFO (the Doppler-sweep experiments draw
    it instead); ``absorbed`` also evaluates the CFO-absorbed baseline.
    Without ``block`` the trial makes its own block of one one-lane draw
    (``draw_block``).

    ``block``, if given, is a block of draws (``draw_block``) that holds
    trial ``trial_index``'s, for a config that differs from ``cfg`` in
    ``snr_db`` alone (``draw_runs``), with a lane at (cfg.snr_db,
    cfo_value).  It is scored with the ``absorbed`` and ``collect_debug``
    it was drawn with, and a call that asks for others is a ValueError.
    The block's first ``run_trial`` scores every lane of it
    (``score_block``), and each call returns its own lane: the same to
    rounding as the lone call if the lanes share one stream (an SNR
    sweep's), and bit for bit if each lane has its own (a ``cfo_value``
    sweep's)."""
    if block is None:
        block = draw_block(cfg, [trial_index], [(cfg.snr_db, cfo_value)], absorbed=absorbed,
                           debug=collect_debug)
    if (block.absorbed, block.debug) != (absorbed, collect_debug):
        raise ValueError(f"a block drawn with absorbed={block.absorbed}, "
                         f"collect_debug={block.debug} scored with absorbed={absorbed}, "
                         f"collect_debug={collect_debug}")
    if not block.scored:
        block.scored.update(score_block(cfg, block))
    return block.scored[trial_index, (cfg.snr_db, cfo_value)]


def score_block(cfg: SystemConfig, block: TrialBlock) -> dict:
    """Every lane of every draw of ``block`` scored in one pass:
    (records, debug) by (trial, (snr_db, cfo_value)), as ``run_trial``
    returns them, ``cfg`` the geometry of every lane.

    The (user, theta_hat) groups of all draws are grouped again by
    theta_hat.  The regions of all the groups at a theta_hat are stacked
    once (``sync.stack_regions``); that stack is one
    ``sync.synchronize_user`` call and one absorbed fit of all their lanes,
    and each estimate and fit is scored in closed form (``channel_nmse``).
    An ``OtfsyncError`` marks every lane at that theta_hat failed: a failed
    search keeps the records' TO decisions, and a failed absorbed fit the
    compensated estimates."""
    by_theta, debug, beta = {}, {}, absorbed_beta(cfg)
    for draw in block.draws:
        for (q, theta), group in draw.groups.items():
            by_theta.setdefault(theta, []).append((draw, q, group))
    for theta, members in by_theta.items():
        # every lane that reaches theta_hat: its record, draw, user, index and group
        lanes = [(draw.records[lane][q], draw, q, lane, group)
                 for draw, q, group in members for lane in group.lanes]
        regions = sync.stack_regions([group.regions for *_, group in members])
        energy = np.array([group.energy for *_, group in lanes])
        try:
            estimates = sync.synchronize_user(regions, theta, cfg)
            nmse = channel_nmse(np.array([estimate.c_hat for estimate in estimates]),
                                sync.estimator_bundle(cfg, theta).gram,
                                np.array([group.proj for *_, group in lanes]), energy)
            for (record, *_), estimate, value in zip(lanes, estimates, nmse.tolist()):
                record.eps_hat, record.nmse = estimate.epsilon_hat, value
            if block.absorbed:
                nmse = channel_nmse(
                    absorbed_channel_fit(regions, cfg, theta, beta),
                    sync.estimator_bundle(cfg, theta, beta).gram,
                    np.concatenate([group.proj_absorbed for *_, group in members]), energy)
                for (record, *_), value in zip(lanes, nmse.tolist()):
                    record.nmse_absorbed = value
            if block.debug:
                for (_, draw, q, lane, _), estimate in zip(lanes, estimates):
                    debug[draw.trial, lane, q] = {
                        "user": q,
                        "timing_metric": draw.curves[lane, q].tolist(),
                        "cfo_grid": estimate.grid.tolist(),
                        "cfo_cost": estimate.cost_curve.tolist(),
                    }
        except OtfsyncError as exc:
            for record, *_ in lanes:
                record.failed, record.error = True, str(exc)
        del regions         # before the next theta_hat's stack is made
    return {(draw.trial, key): (draw.records[lane],
                                [debug[draw.trial, lane, q] for q in range(cfg.num_users)
                                 if (draw.trial, lane, q) in debug])
            for draw in block.draws for lane, key in enumerate(draw.lanes)}


# ---------------------------------------------------------------------------
# sweep-point table and aggregation
# ---------------------------------------------------------------------------

#: the columns of a sweep point's table, one per UserTrialRecord field
RECORD_FIELDS = tuple(f.name for f in fields(UserTrialRecord))


def record_table(records_by_trial) -> dict[str, np.ndarray]:
    """One sweep point as a table: each UserTrialRecord field becomes a
    (trials, Q) column whose row k holds trial k's records in user order."""
    return {name: np.array([[getattr(rec, name) for rec in records]
                            for records in records_by_trial])
            for name in RECORD_FIELDS}


def _mean(x: np.ndarray) -> tuple[float, float]:
    """Mean of the non-NaN entries of a 1-D sample and the 95% normal-
    approximation half-width of its CI: NaN and NaN without such entries, a
    NaN half-width with one."""
    x = x[~np.isnan(x)]
    n = x.size
    if n < 2:
        return float(x[0]) if n else math.nan, math.nan
    return float(x.mean()), 1.96 * math.sqrt(x.var(ddof=1) / n)


def _var(x: np.ndarray) -> tuple[float, float]:
    """Unbiased variance of a 1-D sample and the 95% normal-approximation
    half-width of its CI: NaN and NaN without samples, 0.0 and NaN with one."""
    n = x.size
    if n < 2:
        return 0.0 if n else math.nan, math.nan
    var = float(x.var(ddof=1))
    return var, 1.96 * var * math.sqrt(2.0 / (n - 1))


@dataclass
class AggregateRow:
    sweep_var: str
    sweep_value: float
    user: int
    variant: str
    metric: str
    value: float
    ci_halfwidth: float
    n_trials: int
    n_failed: int


def aggregate_point(sweep_var: str, sweep_value: float, table: dict[str, np.ndarray],
                    absorbed: bool) -> list[AggregateRow]:
    """Reduce one sweep point's (trials, Q) table to aggregate rows.

    Failed trials are counted in n_failed and excluded from the statistics,
    never silently dropped from the totals.  A surviving trial's NaN CFO or
    NMSE estimate is left out of that metric alone.
    """
    n_trials, num_users = table["failed"].shape
    nmse_columns = [("compensated", "nmse")]
    if absorbed:
        nmse_columns.append(("absorbed", "nmse_absorbed"))
    rows = []
    for q in range(num_users):
        ok = ~table["failed"][:, q]
        user = {name: column[:, q][ok] for name, column in table.items()}
        n_failed = n_trials - int(ok.sum())

        def make(variant, metric, value, ci):
            rows.append(AggregateRow(sweep_var, float(sweep_value), q, variant,
                                     metric, value, ci, n_trials, n_failed))

        for variant, column in zip(TO_VARIANTS, ("theta_first", "theta_max")):
            err = (user[column] - user["theta_true"]).astype(float)
            make(variant, "to_mean_abs_err", *_mean(np.abs(err)))
            make(variant, "to_err_var", *_var(err))
        make("compensated", "cfo_mse", *_mean((user["eps_hat"] - user["eps_true"]) ** 2))
        for variant, column in nmse_columns:
            mean, ci = _mean(user[column])
            make(variant, "ch_nmse", mean, ci)
            if mean > 0:
                make(variant, "ch_nmse_db", 10.0 * math.log10(mean),
                     10.0 / math.log(10.0) * ci / mean)
            else:
                make(variant, "ch_nmse_db", math.nan, math.nan)
    return rows


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: variable, points, trials per point, config overrides."""

    name: str
    sweep_var: str
    sweep_points: tuple[float, ...]
    trials: int
    absorbed_baseline: bool = False
    config_overrides: tuple[tuple[str, str], ...] = ()
    per_trial_dump: bool = False

    def validate(self) -> "ExperimentSpec":
        # the name is one directory under the output root (``run_experiment``)
        if self.name in ("", ".", "..") or os.path.basename(self.name) != self.name:
            raise ConfigError(f"name={self.name!r} must be one directory name, "
                              "without a path separator")
        if self.sweep_var not in SWEEP_VARS:
            raise ConfigError(f"sweep_var={self.sweep_var!r} not one of {SWEEP_VARS}")
        if not self.sweep_points:
            raise ConfigError("sweep_points must be nonempty")
        if any(map(math.isnan, self.sweep_points)):
            raise ConfigError("sweep_points must not be NaN")
        if self.sweep_var == "cfo_value" and not all(map(math.isfinite, self.sweep_points)):
            # pinned as every user's CFO directly, past the config's checks
            raise ConfigError("cfo_value sweep points must be finite")
        if list(self.sweep_points) != sorted(self.sweep_points):
            raise ConfigError("sweep_points must be sorted ascending")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        return self


#: spec keys of an experiment file, with their field types
_SPEC_TYPES = {f.name: f.type for f in fields(ExperimentSpec)
               if f.name != "config_overrides"}


def parse_experiment_text(text: str) -> ExperimentSpec:
    """Parse an experiment spec file: flat keys plus ``config.<field>`` overrides."""
    values = {"name": "experiment"}
    overrides = []
    for lineno, key, raw in parse_lines(text):
        if key.startswith("config."):
            overrides.append((key[len("config."):], raw))
        elif key in _SPEC_TYPES:
            values[key] = coerce(_SPEC_TYPES[key], raw, key)
        else:
            raise ConfigError(
                f"line {lineno}: unknown experiment key {key!r}; valid keys: "
                + ", ".join(_SPEC_TYPES) + ", config.<field>"
            )
    for required in ("sweep_var", "sweep_points", "trials"):
        if required not in values:
            raise ConfigError(f"experiment spec missing {required!r}")
    return ExperimentSpec(config_overrides=tuple(overrides), **values).validate()


def load_experiment(path) -> ExperimentSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read experiment spec {path}: {exc}") from exc
    return parse_experiment_text(text)


def point_text(point: float) -> str:
    """A sweep point as ``spec-echo`` writes it: ``:g`` where that text
    parses back to the same float, else the shortest text that does."""
    text = f"{point:g}"
    return text if float(text) == point else repr(float(point))


def experiment_text(spec: ExperimentSpec) -> str:
    lines = [
        f"name = {spec.name}",
        f"sweep_var = {spec.sweep_var}",
        "sweep_points = " + ", ".join(map(point_text, spec.sweep_points)),
        f"trials = {spec.trials}",
        f"absorbed_baseline = {spec.absorbed_baseline}",
        f"per_trial_dump = {spec.per_trial_dump}",
    ]
    lines += [f"config.{key} = {val}" for key, val in spec.config_overrides]
    return "\n".join(lines) + "\n"


def draw_runs(points: list[tuple[SystemConfig, float | None]]) -> list[list]:
    """``points`` split into runs of consecutive points that share one draw
    (``TrialDraw``): the same kind of CFO, and configs that differ in
    ``snr_db`` alone."""
    runs = itertools.groupby(points, lambda point: (replace(point[0], snr_db=0.0),
                                                    point[1] is not None))
    return [list(run) for _, run in runs]


#: trial indices per block, the unit of scoring (``score_block``)
BLOCK_TRIALS = 16


def _block_worker(args):
    """The records of a block of trial indices at every point of a sweep,
    one list per trial, one entry per point: one ``TrialBlock`` per run of
    points (``draw_runs``), with a lane per point, and one run's block live
    at a time."""
    runs, trials, absorbed = args
    records = [[] for _ in trials]
    for run in runs:
        block = draw_block(run[0][0], trials, [(cfg.snr_db, cfo) for cfg, cfo in run],
                           absorbed=absorbed)
        for by_point, k in zip(records, trials):
            by_point += [run_trial(cfg, k, cfo_value=cfo, absorbed=absorbed, block=block)[0]
                         for cfg, cfo in run]
        del block
    return records


def run_point(points: list[tuple[SystemConfig, float | None]], trials: int, *,
              absorbed=False, workers: int = 1) -> list[dict[str, np.ndarray]]:
    """Every point of one sweep: ``points`` is a list of (cfg, cfo_value),
    and the result holds each point's (trials, Q) table (``record_table``),
    rows in trial order.  Every point's config is validated before anything
    is drawn.

    One job per block of BLOCK_TRIALS consecutive trial indices runs those
    trials at every point, with one ``TrialBlock`` per run of consecutive
    points that it serves; the blocks are the same whatever the worker
    count, and a pool, if any, lives for the whole sweep, with no more
    workers than blocks.  The name stays
    ``run_point`` because the benchmark's tracer (``perfbench/tracing.py``)
    wraps it by name.
    """
    for cfg, _ in points:
        cfg.validate()
    runs = draw_runs(points)
    jobs = [(runs, range(start, min(start + BLOCK_TRIALS, trials)), absorbed)
            for start in range(0, trials, BLOCK_TRIALS)]
    if workers <= 1:
        by_block = [_block_worker(job) for job in jobs]
    else:
        # imported here: it loads logging and threading, which no serial sweep needs
        import concurrent.futures
        # a forked pool starts all of its workers at the first submit
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            by_block = list(pool.map(_block_worker, jobs))
    by_trial = [records for block in by_block for records in block]
    return [record_table(by_point) for by_point in zip(*by_trial)]


@dataclass
class EstimationReport:
    spec: ExperimentSpec
    rows: list[AggregateRow]
    n_trials: int = 0
    n_failed: int = 0

    def to_csv_text(self) -> str:
        header = "sweep_var,sweep_value,user,variant,metric,value,ci_halfwidth,n_trials,n_failed"
        lines = [header]
        ordered = sorted(self.rows, key=lambda r: (r.sweep_value, r.user, r.variant,
                                                   r.metric))
        for r in ordered:
            lines.append(
                f"{r.sweep_var},{r.sweep_value:.12g},{r.user},{r.variant},{r.metric},"
                f"{r.value:.12g},{r.ci_halfwidth:.12g},{r.n_trials},{r.n_failed}"
            )
        return "\n".join(lines) + "\n"


def run_experiment(spec: ExperimentSpec, base_cfg: SystemConfig | None = None,
                   out_dir=None, workers: int = 1) -> EstimationReport:
    """Sweep the spec's points, aggregate, and optionally write result files.

    Output layout: <out_dir>/<name>/{results.csv, spec-echo, per-trial.jsonl}.
    """
    spec = spec.validate()
    cfg0 = base_cfg if base_cfg is not None else SystemConfig()
    cfg0 = apply_overrides(cfg0, dict(spec.config_overrides))
    all_rows: list[AggregateRow] = []
    per_trial_lines = []
    pilot_snr_lines = []
    n_trials = n_failed = 0
    points = []
    for point in spec.sweep_points:
        if spec.sweep_var == "cfo_value":
            cfg, cfo_value = cfg0, float(point)
        else:
            cfg, cfo_value = apply_overrides(cfg0, {spec.sweep_var: point}), None
        pilot_snr_lines.append(f"# {spec.sweep_var} = {point_text(point)}: pilot SNR per bin "
                               f"{cfg.snr_db + cfg.pilot_power_db:g} dB")
        points.append((cfg, cfo_value))
    tables = run_point(points, spec.trials, absorbed=spec.absorbed_baseline,
                       workers=workers)
    for point, table in zip(spec.sweep_points, tables):
        all_rows.extend(aggregate_point(spec.sweep_var, point, table, spec.absorbed_baseline))
        n_trials += table["failed"].size
        n_failed += int(table["failed"].sum())
        if spec.per_trial_dump:
            columns = {name: column.tolist() for name, column in table.items()}
            per_trial_lines += [
                json_line({"sweep_value": float(point), "trial": k,
                           **{name: rows[k][q] for name, rows in columns.items()}})
                for k, q in np.ndindex(table["failed"].shape)]
    report = EstimationReport(spec=spec, rows=all_rows, n_trials=n_trials,
                              n_failed=n_failed)
    if out_dir is not None:
        target = os.path.join(str(out_dir), spec.name)
        os.makedirs(target, exist_ok=True)
        with open(os.path.join(target, "results.csv"), "w", encoding="utf-8") as fh:
            fh.write(report.to_csv_text())
        with open(os.path.join(target, "spec-echo"), "w", encoding="utf-8") as fh:
            fh.write(experiment_text(spec))
            fh.write("\n# pilot SNR per bin (snr_db + pilot_power_db) at each sweep point\n")
            fh.write("\n".join(pilot_snr_lines) + "\n")
            fh.write("\n# resolved base config\n")
            fh.write(echo_config(cfg0))
        if spec.per_trial_dump:
            with open(os.path.join(target, "per-trial.jsonl"), "w", encoding="utf-8") as fh:
                fh.write("\n".join(per_trial_lines) + "\n")
    return report
