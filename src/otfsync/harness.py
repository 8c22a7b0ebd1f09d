"""Monte Carlo experiment engine.

Draws trials, runs the full transmit -> channel -> receive -> estimate
pipeline, aggregates error metrics per sweep point, and writes CSV result
tables.  Every random draw in trial ``k`` comes from the stream seeded with
(rng_seed, k), so trials are order-independent, parallel-safe, and exactly
reproducible.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import channel as chan
from . import modem, pilot, sync
from .allocation import build_allocation
from .config import (SystemConfig, apply_overrides, bem_order_bound, coerce,
                     echo_config, parse_lines)
from .errors import ConfigError, OtfsyncError

SWEEP_VARS = ("snr_db", "nu_max_t", "cfo_value")
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


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based stream: (seed, trial_index) determines every draw."""
    return np.random.default_rng([seed, trial_index])


def true_pilot_taps(paths: chan.PathSet, cfg: SystemConfig,
                    placement: pilot.PilotPlacement, theta: int,
                    eps: float | None = None) -> np.ndarray:
    """Ground-truth taps h[n, l, j] over the pilot region at true alignment.

    With ``eps`` given, returns the CFO-absorbed compound taps
    h[l, kappa] * exp(j 2 pi eps kappa / N_s) instead.
    """
    kappa = cfg.cp_len + placement.region_index(theta)
    # C order: the NMSE sums then add in the same order as for a fresh (N, L, L) array
    taps = np.ascontiguousarray(paths.taps(kappa, cfg.zc_len).transpose(1, 0, 2))
    if eps is not None:
        taps *= sync.cfo_phase(kappa, eps, cfg.n_s)[:, np.newaxis, :]
    return taps


def _nmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    denom = np.sum(np.abs(truth) ** 2)
    if denom == 0:
        return math.nan
    return float(np.sum(np.abs(estimate - truth) ** 2) / denom)


def absorbed_beta(cfg: SystemConfig, eps_true: float) -> int:
    """Basis order for the CFO-absorbed baseline: the channel-only order,
    inflated to cover the compound Doppler spread nu_max_t + |eps|, capped at
    12 and at the Doppler axis n (a larger order leaves the fit underdetermined)."""
    return max(cfg.beta, min(12, cfg.n, bem_order_bound(cfg.nu_max_t + abs(eps_true))))


def absorbed_channel_fit(region: sync.PilotRegion, cfg: SystemConfig,
                         placement, pcp, user: int, theta: int,
                         eps_true: float) -> np.ndarray:
    """Baseline fit with the CFO left inside the channel (search disabled):
    the LS solve runs at zero offset against the same pilot template."""
    bundle = sync.estimator_bundle(cfg, placement, pcp, user, theta,
                                   beta=absorbed_beta(cfg, eps_true))
    c_hat = bundle.regressor.coeffs(region.samples.ravel())
    return sync.reconstruct_channel(c_hat, bundle.bem)


def run_trial(cfg: SystemConfig, trial_index: int, *, cfo_value: float | None = None,
              absorbed: bool = False, collect_debug: bool = False):
    """Run one end-to-end trial; returns (records, debug).

    Per-user estimation failures become failed records, never exceptions.
    ``cfo_value`` pins every user's CFO (the Doppler-sweep experiments draw
    it instead); ``absorbed`` also evaluates the CFO-absorbed baseline.
    """
    rng = trial_rng(cfg.rng_seed, trial_index)
    allocs = build_allocation(cfg.m, cfg.n, cfg.num_users, cfg.allocation)
    placement = pilot.PilotPlacement.from_config(cfg)
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)

    realization = chan.draw_realization(rng, cfg)
    if cfo_value is not None:
        realization.cfo[:] = cfo_value

    # the front end runs once on (Q, ...) arrays; the users split after timing
    frames = [modem.build_data_frame(rng, cfg.m, cfg.n, alloc, placement.guard_rows)
              for alloc in allocs]
    frames = pilot.embed_pilots(frames, placement, pcp)
    streams = modem.transmit(frames, cfg.cp_len)

    rx = chan.apply_channel(streams, realization, cfg.n_s, cfg.theta_max)
    rx = chan.add_awgn(rx, cfg.snr_db, rng)
    y = modem.remove_cp(rx[cfg.theta_max:], cfg.cp_rem, out_len=cfg.m * cfg.n)
    separated = sync.separate_user(y, cfg.num_users, cfg.m, cfg.n)
    metric = sync.timing_correlate(separated, pcp, placement, cfg.cp_len)

    records, debug = [], []
    for q in range(cfg.num_users):
        theta_true = int(realization.to[q])
        eps_true = float(realization.cfo[q])
        record = UserTrialRecord(user=q, theta_true=theta_true, eps_true=eps_true)
        try:
            override = theta_true if cfg.genie_to else None
            result = sync.synchronize_user(separated, metric, q, cfg, placement, pcp,
                                           theta_override=override)
            record.theta_first = result.to_estimate.first_peak
            record.theta_max = result.to_estimate.max_peak
            record.eps_hat = result.cfo.epsilon_hat
            truth = true_pilot_taps(realization.paths[q], cfg, placement, theta_true)
            record.nmse = _nmse(result.cfo.h_hat, truth)
            if absorbed:
                h_abs = absorbed_channel_fit(result.region, cfg, placement, pcp,
                                             q, result.theta_used, eps_true)
                truth_abs = true_pilot_taps(realization.paths[q], cfg, placement,
                                            theta_true, eps=eps_true)
                record.nmse_absorbed = _nmse(h_abs, truth_abs)
            if collect_debug:
                debug.append({
                    "user": q,
                    "timing_metric": result.metric.curve.tolist(),
                    "cfo_grid": result.cfo.grid.tolist(),
                    "cfo_cost": result.cfo.cost_curve.tolist(),
                })
        except OtfsyncError as exc:
            record.failed = True
            record.error = str(exc)
        records.append(record)
    return records, debug


# ---------------------------------------------------------------------------
# streaming aggregation
# ---------------------------------------------------------------------------

class RunningStats:
    """Streamed mean/variance (Welford); matches batch recomputation."""

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def push(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        if self.count < 2:
            return 0.0 if self.count else math.nan
        return self._m2 / (self.count - 1)

    @property
    def mean_ci(self) -> float:
        """95% normal-approximation half-width for the mean."""
        if self.count < 2:
            return math.nan
        return 1.96 * math.sqrt(self.variance / self.count)

    @property
    def variance_ci(self) -> float:
        """95% normal-approximation half-width for the variance."""
        if self.count < 2:
            return math.nan
        return 1.96 * self.variance * math.sqrt(2.0 / (self.count - 1))


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


def aggregate_point(sweep_var: str, sweep_value: float, records_by_trial,
                    num_users: int, absorbed: bool) -> list[AggregateRow]:
    """Reduce one sweep point's trial records to aggregate rows.

    Failed trials are counted in n_failed and excluded from the statistics,
    never silently dropped from the totals.
    """
    rows = []
    for q in range(num_users):
        n_total = len(records_by_trial)
        ok = [records[q] for records in records_by_trial if not records[q].failed]
        n_failed = n_total - len(ok)

        def make(variant, metric, value, ci):
            rows.append(AggregateRow(sweep_var, float(sweep_value), q, variant,
                                     metric, value, ci, n_total, n_failed))

        for variant in TO_VARIANTS:
            attr = "theta_first" if variant == "first-peak" else "theta_max"
            err_stat, abs_stat = RunningStats(), RunningStats()
            for rec in ok:
                err = float(getattr(rec, attr) - rec.theta_true)
                err_stat.push(err)
                abs_stat.push(abs(err))
            make(variant, "to_mean_abs_err", abs_stat.mean, abs_stat.mean_ci)
            make(variant, "to_err_var", err_stat.variance, err_stat.variance_ci)

        cfo_stat = RunningStats()
        for rec in ok:
            if not math.isnan(rec.eps_hat):
                cfo_stat.push((rec.eps_hat - rec.eps_true) ** 2)
        make("compensated", "cfo_mse", cfo_stat.mean, cfo_stat.mean_ci)

        nmse_sources = [("compensated", "nmse")]
        if absorbed:
            nmse_sources.append(("absorbed", "nmse_absorbed"))
        for variant, attr in nmse_sources:
            st = RunningStats()
            for rec in ok:
                value = getattr(rec, attr)
                if not math.isnan(value):
                    st.push(value)
            make(variant, "ch_nmse", st.mean, st.mean_ci)
            if st.count and st.mean > 0:
                db = 10.0 * math.log10(st.mean)
                db_ci = 10.0 / math.log(10.0) * st.mean_ci / st.mean
            else:
                db, db_ci = math.nan, math.nan
            make(variant, "ch_nmse_db", db, db_ci)
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
        if self.sweep_var not in SWEEP_VARS:
            raise ConfigError(f"sweep_var={self.sweep_var!r} not one of {SWEEP_VARS}")
        if not self.sweep_points:
            raise ConfigError("sweep_points must be nonempty")
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


def experiment_text(spec: ExperimentSpec) -> str:
    lines = [
        f"name = {spec.name}",
        f"sweep_var = {spec.sweep_var}",
        "sweep_points = " + ", ".join(f"{p:g}" for p in spec.sweep_points),
        f"trials = {spec.trials}",
        f"absorbed_baseline = {spec.absorbed_baseline}",
        f"per_trial_dump = {spec.per_trial_dump}",
    ]
    lines += [f"config.{key} = {val}" for key, val in spec.config_overrides]
    return "\n".join(lines) + "\n"


def _trial_worker(args):
    cfg, trial_index, cfo_value, absorbed = args
    records, _ = run_trial(cfg, trial_index, cfo_value=cfo_value, absorbed=absorbed)
    return trial_index, records


def run_point(cfg: SystemConfig, trials: int, *, cfo_value=None, absorbed=False,
              workers: int = 1):
    """All trial records for one sweep point, ordered by trial index."""
    jobs = [(cfg, k, cfo_value, absorbed) for k in range(trials)]
    if workers <= 1:
        results = [_trial_worker(job) for job in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_worker, jobs, chunksize=8))
    results.sort(key=lambda item: item[0])
    return [records for _, records in results]


@dataclass
class EstimationReport:
    spec: ExperimentSpec
    rows: list[AggregateRow]
    n_trials: int = 0
    n_failed: int = 0

    def value(self, sweep_value: float, user: int, variant: str, metric: str,
              field_name: str = "value") -> float:
        for row in self.rows:
            if (math.isclose(row.sweep_value, sweep_value) and row.user == user
                    and row.variant == variant and row.metric == metric):
                return getattr(row, field_name)
        raise KeyError(f"no row for ({sweep_value}, {user}, {variant}, {metric})")

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
    n_trials = n_failed = 0
    for point in spec.sweep_points:
        if spec.sweep_var == "cfo_value":
            cfg, cfo_value = cfg0, float(point)
        else:
            cfg, cfo_value = apply_overrides(cfg0, {spec.sweep_var: point}), None
        records_by_trial = run_point(cfg, spec.trials, cfo_value=cfo_value,
                                     absorbed=spec.absorbed_baseline, workers=workers)
        all_rows.extend(aggregate_point(spec.sweep_var, point, records_by_trial,
                                        cfg.num_users, spec.absorbed_baseline))
        for k, records in enumerate(records_by_trial):
            for rec in records:
                n_trials += 1
                n_failed += int(rec.failed)
                if spec.per_trial_dump:
                    entry = {"sweep_value": float(point), "trial": k}
                    entry.update(asdict(rec))
                    per_trial_lines.append(json.dumps(entry, sort_keys=True))
    report = EstimationReport(spec=spec, rows=all_rows, n_trials=n_trials,
                              n_failed=n_failed)
    if out_dir is not None:
        target = os.path.join(str(out_dir), spec.name)
        os.makedirs(target, exist_ok=True)
        with open(os.path.join(target, "results.csv"), "w", encoding="utf-8") as fh:
            fh.write(report.to_csv_text())
        with open(os.path.join(target, "spec-echo"), "w", encoding="utf-8") as fh:
            fh.write(experiment_text(spec))
            fh.write("\n# resolved base config\n")
            fh.write(echo_config(cfg0))
        if spec.per_trial_dump:
            with open(os.path.join(target, "per-trial.jsonl"), "w", encoding="utf-8") as fh:
                fh.write("\n".join(per_trial_lines) + "\n")
    return report
