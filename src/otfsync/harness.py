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
which the front end filters and correlates lane by lane.  A lone point is
such a lane, unrotated.  The front end takes every (point, user)'s TO
decision in one pass when the draw is made.  ``run_trial`` runs once per
point, and the draw's first one scores every lane of it (``score_draw``):
each user's CFO search runs once per theta_hat, for every lane that
reaches that theta_hat at once, the absorbed baseline fits those lanes at
once, and nothing of a user but its records is kept once they are
filled.  The ``nu_max_t`` and ``pilot_power_db`` sweeps change the channel
or the pilots, so each of their points has a draw of its own.
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
    C-contiguous, so that ``_nmse`` reads them without a copy."""
    kappa = pilot.region_kappa(cfg, theta)
    return np.ascontiguousarray(paths.taps(kappa, cfg.zc_len).transpose(1, 0, 2))


def _nmse(estimate: np.ndarray, truth: np.ndarray, energy: float | None = None) -> float:
    """||estimate - truth||^2 / ||truth||^2, NaN for an all-zero truth.
    ``energy``, if given, is ||truth||^2 as ``np.vdot(truth, truth).real``
    makes it (``TrialDraw.truth_energy``)."""
    denom = np.vdot(truth, truth).real if energy is None else energy
    if denom == 0:
        return math.nan
    error = estimate - truth
    return float(np.vdot(error, error).real / denom)


def absorbed_beta(cfg: SystemConfig) -> int:
    """Basis order for the CFO-absorbed baseline, from the config alone, as a
    receiver that skips the CFO search knows no CFO: the channel-only order,
    inflated to cover the largest compound Doppler spread of a CFO draw,
    nu_max_t + cfo_max, capped at BEM_ORDER_CAP and at n (a larger order
    leaves the fit underdetermined)."""
    bound = bem_order_bound(cfg.nu_max_t + cfg.cfo_max)
    return max(cfg.beta, min(BEM_ORDER_CAP, cfg.n, bound))


def absorbed_channel_fit(regions: np.ndarray, cfg: SystemConfig, user: int,
                         theta: int, beta: int) -> np.ndarray:
    """Baseline fit with the CFO left inside the channel (search disabled):
    the LS solve of order ``beta`` (``absorbed_beta``) runs at zero offset
    against the Doppler-free template 1 (x) p, on the user's (N, L_p) region
    de-rotated by its own slot phase (``sync.derotate``), or on each region
    of a (lanes, N, L_p) stack, which gives (lanes, N, L_p, L_p).  It reads
    the table of order ``beta`` (``sync.estimator_bundle``), not the
    search's.  At zero offset no rotation is needed, so the fit is the
    regions' slot rows summed over the slots, one (L_p*beta)-square matrix
    product per region (``BemRegressor.coeffs``) and one reconstruction of
    them all."""
    regressor = sync.estimator_bundle(cfg, theta, beta=beta)
    samples = sync.derotate(regions, cfg, user)
    c_hat = regressor.coeffs(samples.reshape(samples.shape[:-2] + (-1,)))
    return sync.reconstruct_channel(c_hat, regressor.bem)


@dataclass(frozen=True)
class TrialDraw:
    """Everything a trial draws: the realization, the noiseless receive
    stream of ``channel.apply_channel``, each user's ``true_pilot_taps`` at
    its true timing offset and their energy, which every point scores its
    estimate against (``_nmse``), and the unit noise (``channel.unit_noise``)
    that the draw scales to each point's SNR.

    ``lanes`` holds the distinct (SNR, pinned CFO) of the points the draw
    serves, and ``front`` is the receive front end (``sync.front_end``)
    with lane p at ``lanes[p]``, which makes every point's TO decisions with
    the draw.  ``scored`` is empty until the draw's first ``run_trial``,
    which scores every lane in one pass (``score_draw``) and keeps only each
    lane's records and debug entries there, for the other points to read.
    A pinned draw's realization has zero CFOs and ``rx`` is the zero-CFO
    stream: a pinned CFO eps, the same for every user, is the rotation
    exp(j 2 pi eps kappa / N_s) of that stream, which ``draw_trial`` applies
    lane by lane.  So a pinned draw's realization depends neither on
    ``cfg.snr_db`` nor on the pinned values.  Its arrays (``pcp``, the
    offsets, ``rx``, ``noise``, ``truth`` and the front end's separated
    streams and timing curves) are read-only."""

    pcp: np.ndarray
    realization: chan.ChannelRealization
    rx: np.ndarray
    noise: np.ndarray
    truth: tuple[np.ndarray, ...]
    truth_energy: tuple[float, ...]
    lanes: tuple[tuple[float, float | None], ...]
    front: sync.FrontEnd
    scored: list = field(default_factory=list, repr=False)


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
    for array in (pcp, realization.to, realization.cfo, rx, noise, *truth, front.separated,
                  front.curves):
        array.flags.writeable = False
    return TrialDraw(pcp=pcp, realization=realization, rx=rx, noise=noise, truth=truth,
                     truth_energy=truth_energy, lanes=lanes, front=front)


def run_trial(cfg: SystemConfig, trial_index: int, *, cfo_value: float | None = None,
              absorbed: bool = False, collect_debug: bool = False,
              draw: TrialDraw | None = None):
    """Run one end-to-end trial of one point; returns its Q records and its
    debug entries.

    Per-user estimation failures become failed records, never exceptions.
    ``cfo_value`` pins every user's CFO (the Doppler-sweep experiments draw
    it instead); ``absorbed`` also evaluates the CFO-absorbed baseline.
    Without ``draw`` the trial makes its own one-lane draw (``draw_trial``).

    ``draw``, if given, is trial ``trial_index``'s draw for a config that
    differs from ``cfg`` in ``snr_db`` alone (``draw_runs``), with a lane at
    (cfg.snr_db, cfo_value).  The draw's first ``run_trial`` scores every
    lane of it (``score_draw``), with that call's ``absorbed`` and
    ``collect_debug``, and each call returns its own lane: the same to
    rounding as the lone call if the lanes share one stream (an SNR
    sweep's), and bit for bit if each lane has its own (a ``cfo_value``
    sweep's)."""
    if draw is None:
        draw = draw_trial(cfg, trial_index, [(cfg.snr_db, cfo_value)])
    if not draw.scored:
        draw.scored.extend(score_draw(cfg, draw, absorbed, collect_debug))
    return draw.scored[draw.lanes.index((cfg.snr_db, cfo_value))]


def score_draw(cfg: SystemConfig, draw: TrialDraw, absorbed: bool,
               collect_debug: bool) -> list[tuple[list[UserTrialRecord], list[dict]]]:
    """Every lane of ``draw`` scored in one pass: (records, debug) by lane,
    as ``run_trial`` returns them, ``cfg`` the geometry of every lane.

    Each user's lanes are grouped by theta_hat, or form one group at the
    true offset under ``genie_to``.  A group is one ``sync.synchronize_user``
    call and one absorbed fit of all its regions, and an ``OtfsyncError`` in
    either marks every lane of the group failed; nothing of a user is kept
    once its records are filled."""
    realization, front = draw.realization, draw.front
    theta_true = realization.to.tolist()
    records = [[UserTrialRecord(user=q, theta_true=theta_true[q], eps_true=float(eps))
                for q, eps in enumerate(realization.cfo if pinned is None
                                        else [pinned] * cfg.num_users)]
               for _, pinned in draw.lanes]
    debug = [[] for _ in draw.lanes]
    first, peak = front.to_estimate.first_peak.tolist(), front.to_estimate.max_peak.tolist()
    for q in range(cfg.num_users):
        truth, energy = draw.truth[q], draw.truth_energy[q]
        groups = {}                     # theta_hat -> its lanes, ascending
        for lane, row in enumerate(first):
            groups.setdefault(theta_true[q] if cfg.genie_to else row[q], []).append(lane)
        for theta, lanes in groups.items():
            group = [records[lane][q] for lane in lanes]
            try:
                regions, estimates = sync.synchronize_user(front, q, theta, lanes)
                for lane, record, estimate in zip(lanes, group, estimates):
                    record.theta_first, record.theta_max = first[lane][q], peak[lane][q]
                    record.eps_hat = estimate.epsilon_hat
                    record.nmse = _nmse(estimate.h_hat, truth, energy)
                if absorbed:
                    fits = absorbed_channel_fit(regions, cfg, q, theta, absorbed_beta(cfg))
                    kappa = pilot.region_kappa(cfg, theta_true[q])
                    for record, h_abs in zip(group, fits):
                        # the CFO-absorbed compound taps h[l, kappa] exp(j 2 pi eps kappa / N_s)
                        phase = sync.cfo_phase(kappa, record.eps_true, cfg.n_s)
                        record.nmse_absorbed = _nmse(h_abs, truth * phase[:, np.newaxis, :],
                                                     energy)     # |phase| = 1
                if collect_debug:
                    for lane, estimate in zip(lanes, estimates):
                        debug[lane].append({
                            "user": q,
                            "timing_metric": front.curves[lane, q].tolist(),
                            "cfo_grid": estimate.grid.tolist(),
                            "cfo_cost": estimate.cost_curve.tolist(),
                        })
            except OtfsyncError as exc:
                for record in group:
                    record.failed, record.error = True, str(exc)
    return list(zip(records, debug))


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


def _trial_worker(args):
    """Trial k's records at every point of a sweep, one list per point: one
    draw per run of points (``draw_runs``), with a lane per point."""
    runs, trial_index, absorbed = args
    records = []
    for run in runs:
        cfg, cfo_value = run[0]
        draw = draw_trial(cfg, trial_index, [(point_cfg.snr_db, point_cfo)
                                             for point_cfg, point_cfo in run])
        records += [run_trial(point_cfg, trial_index, cfo_value=point_cfo, absorbed=absorbed,
                              draw=draw)[0] for point_cfg, point_cfo in run]
        del draw                        # one draw live at a time
    return records


def run_point(points: list[tuple[SystemConfig, float | None]], trials: int, *,
              absorbed=False, workers: int = 1) -> list[dict[str, np.ndarray]]:
    """Every point of one sweep: ``points`` is a list of (cfg, cfo_value),
    and the result holds each point's (trials, Q) table (``record_table``),
    rows in trial order.

    One job per trial index runs that trial at every point, with one
    ``TrialDraw`` per run of consecutive points that it serves; a pool, if
    any, lives for the whole sweep.  The name stays ``run_point`` because
    the benchmark's tracer (``perfbench/tracing.py``) wraps it by name.
    """
    runs = draw_runs(points)
    jobs = [(runs, k, absorbed) for k in range(trials)]
    if workers <= 1:
        by_trial = [_trial_worker(job) for job in jobs]
    else:
        # imported here: it loads logging and threading, which no serial sweep needs
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            by_trial = list(pool.map(_trial_worker, jobs))
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
