"""Monte Carlo engine: trials, aggregation, experiment runs."""

import json
import math
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from otfsync import channel as chan
from otfsync import harness, modem, pilot, sync
from otfsync.config import (CHANNEL_MODELS, SystemConfig, apply_overrides, bem_order_bound,
                            default_bem_order)
from otfsync.errors import ConfigError, EstimationError, OtfsyncError
from sync_oracle import front_end_chain, per_point_trial


def quick_config(**kw):
    base = dict(num_users=1, snr_db=math.inf, nu_max_t=0.0,
                channel_model="single-tap")
    base.update(kw)
    return SystemConfig(**base).validate()


def report_value(report, sweep_value, user, variant, metric):
    """The value of the report's one aggregate row at (sweep_value, user,
    variant, metric)."""
    (row,) = [row for row in report.rows
              if math.isclose(row.sweep_value, sweep_value) and row.user == user
              and row.variant == variant and row.metric == metric]
    return row.value


def test_trivial_noiseless_trial():
    cfg = quick_config()
    for k in range(5):
        records, _ = harness.run_trial(cfg, k)
        rec = records[0]
        assert not rec.failed
        assert rec.theta_first == rec.theta_true
        assert abs(rec.eps_hat - rec.eps_true) <= cfg.cfo_tol


def test_negative_trial_index_is_a_config_error():
    # the trial's stream is seeded with (rng_seed, trial_index), which numpy
    # rejects for a negative index with a ValueError of its own
    cfg = quick_config()
    with pytest.raises(ConfigError, match="trial index"):
        harness.run_trial(cfg, -1)
    with pytest.raises(ConfigError, match="trial index"):
        harness.draw_trial(cfg, -1)


@pytest.mark.parametrize("overrides", [{"cfo_tol": 0.0}, {"cp_len": 2}])
def test_an_invalid_config_fails_where_the_trial_starts(overrides):
    # the config check runs once per draw, before anything is drawn: a zero
    # CFO tolerance raises instead of failing each user's search, and a CP
    # shorter than theta_max raises the CP rule, not a CP-removal error
    cfg = SystemConfig(**overrides)
    message = "\n  ".join(cfg.violations())
    assert message
    for run in (harness.run_trial, harness.draw_trial):
        with pytest.raises(ConfigError, match=re.escape(message)):
            run(cfg, 0)


def test_trial_determinism():
    cfg = quick_config(num_users=2, channel_model="eva", nu_max_t=1.0,
                       snr_db=10.0)
    a, _ = harness.run_trial(cfg, 7)
    b, _ = harness.run_trial(cfg, 7)
    assert a == b


def test_trials_differ_across_indices():
    cfg = quick_config()
    a, _ = harness.run_trial(cfg, 0)
    b, _ = harness.run_trial(cfg, 1)
    assert a != b


def test_genie_to_flag():
    cfg = quick_config(num_users=2, channel_model="eva", nu_max_t=2.91,
                       snr_db=20.0, genie_to=True)
    records, _ = harness.run_trial(cfg, 3)
    assert all(not r.failed for r in records)


def test_debug_collection():
    cfg = quick_config()
    _, debug = harness.run_trial(cfg, 0, collect_debug=True)
    assert len(debug) == 1
    assert len(debug[0]["timing_metric"]) == cfg.m
    assert len(debug[0]["cfo_grid"]) == len(debug[0]["cfo_cost"])
    # the dump reads the one back end, on a one-lane front end and on a
    # two-lane one: the per-point chain's curves, noiseless and at a noisy Q = 2 point
    for cfg in (cfg, quick_config(num_users=2, channel_model="eva", nu_max_t=1.0, snr_db=5.0)):
        want = per_point_trial(cfg, 0)
        for lanes in ((cfg.snr_db,), (cfg.snr_db, 30.0)):
            draw = harness.draw_trial(cfg, 0, [(snr, None) for snr in lanes])
            _, debug = harness.run_trial(cfg, 0, collect_debug=True, draw=draw)
            assert len(debug) == len(want) == cfg.num_users
            for entry, user in zip(debug, want):
                for name in ("timing_metric", "cfo_cost"):
                    scale = np.max(np.abs(user[name]))
                    assert np.max(np.abs(np.array(entry[name]) - user[name])) <= 1e-12 * scale


def test_absorbed_baseline_equals_compensated_at_zero_cfo():
    # noiseless, eps pinned to zero: identical LS problems; without a CFO
    # draw (cfo_max = 0) the absorbed basis is the compensated one
    cfg = quick_config(num_users=1, channel_model="eva-bem", nu_max_t=1.0, cfo_max=0.0)
    assert harness.absorbed_beta(cfg) == cfg.beta  # same basis in both fits
    records, _ = harness.run_trial(cfg, 2, cfo_value=0.0, absorbed=True)
    rec = records[0]
    assert rec.eps_hat == 0.0
    assert rec.nmse_absorbed == pytest.approx(rec.nmse, rel=1e-9)


def test_absorbed_order_capped_at_doppler_axis():
    # nu_max_t + cfo_max = 1.8 asks for order 5 on an n = 4 Doppler axis,
    # which left the absorbed fit underdetermined and failed the whole record
    spec = harness.ExperimentSpec(
        name="absorbed-small", sweep_var="cfo_value", sweep_points=(0.0, 0.5),
        trials=2, absorbed_baseline=True,
        config_overrides=(("m", "16"), ("n", "4"), ("num_users", "1"),
                          ("zc_len", "5"), ("nu_max_t", "1.3"), ("bem_order", "4")))
    cfg = apply_overrides(SystemConfig(), dict(spec.config_overrides))
    assert bem_order_bound(cfg.nu_max_t + cfg.cfo_max) > cfg.n
    assert harness.absorbed_beta(cfg) == cfg.n
    report = harness.run_experiment(spec)
    assert (report.n_trials, report.n_failed) == (4, 0)
    for point in spec.sweep_points:
        assert math.isfinite(report_value(report, point, 0, "absorbed", "ch_nmse"))


def random_records(rng, trials, num_users):
    """Per-trial record lists with random failures and NaN CFO and NMSE
    estimates.  Failed records keep random estimates, as a record that fails
    after timing does.  With Q > 1 the next-to-last user fails in every
    trial and the last user survives in exactly one."""
    records = []
    for k in range(trials):
        row = []
        for q in range(num_users):
            rec = harness.UserTrialRecord(
                user=q, theta_true=int(rng.integers(0, 5)),
                theta_first=int(rng.integers(0, 5)), theta_max=int(rng.integers(0, 5)),
                eps_true=rng.uniform(-0.5, 0.5), eps_hat=rng.uniform(-1.0, 1.0),
                nmse=rng.exponential(), nmse_absorbed=rng.exponential(),
                failed=bool(rng.random() < 0.3))
            for name in ("eps_hat", "nmse", "nmse_absorbed"):
                if rng.random() < 0.2:
                    setattr(rec, name, math.nan)
            if num_users > 1 and q >= num_users - 2:
                rec.failed = q == num_users - 2 or k != trials // 2
            rec.error = "drawn" if rec.failed else ""
            row.append(rec)
        records.append(row)
    return records


def direct_rows(records, num_users):
    """{(user, variant, metric): (value, ci, n_failed)} straight from the
    records, with np.mean and np.var(ddof=1) over the survivors."""
    def mean(x):
        n = len(x)
        return (np.mean(x) if n else math.nan,
                1.96 * np.sqrt(np.var(x, ddof=1) / n) if n > 1 else math.nan)

    def var(x):
        n = len(x)
        v = np.var(x, ddof=1) if n > 1 else (0.0 if n else math.nan)
        return v, (1.96 * v * np.sqrt(2.0 / (n - 1)) if n > 1 else math.nan)

    want = {}
    for q in range(num_users):
        ok = [row[q] for row in records if not row[q].failed]
        n_failed = len(records) - len(ok)
        for variant, attr in (("first-peak", "theta_first"), ("max-peak", "theta_max")):
            err = [getattr(r, attr) - r.theta_true for r in ok]
            want[q, variant, "to_mean_abs_err"] = (*mean(np.abs(err)), n_failed)
            want[q, variant, "to_err_var"] = (*var(err), n_failed)
        want[q, "compensated", "cfo_mse"] = (
            *mean([(r.eps_hat - r.eps_true) ** 2 for r in ok if not math.isnan(r.eps_hat)]),
            n_failed)
        for variant, attr in (("compensated", "nmse"), ("absorbed", "nmse_absorbed")):
            m, ci = mean([getattr(r, attr) for r in ok if not math.isnan(getattr(r, attr))])
            want[q, variant, "ch_nmse"] = (m, ci, n_failed)
            want[q, variant, "ch_nmse_db"] = (
                (10 * np.log10(m), 10 / np.log(10) * ci / m, n_failed) if m > 0
                else (math.nan, math.nan, n_failed))
    return want


@pytest.mark.parametrize("num_users", [1, 3])
@pytest.mark.parametrize("trials", [1, 2, 17])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_aggregation_matches_direct_formulas(num_users, trials, seed):
    records = random_records(np.random.default_rng([seed, num_users, trials]),
                             trials, num_users)
    table = harness.record_table(records)
    assert table["failed"].shape == (trials, num_users)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = harness.aggregate_point("cfo_value", 0.25, table, absorbed=True)
        want = direct_rows(records, num_users)
    assert {(r.user, r.variant, r.metric) for r in rows} == set(want)
    assert len(rows) == len(want)
    for row in rows:
        value, ci, n_failed = want[row.user, row.variant, row.metric]
        assert (row.sweep_var, row.sweep_value, row.n_trials) == ("cfo_value", 0.25, trials)
        assert row.n_failed == n_failed
        assert row.value == pytest.approx(value, rel=1e-12, abs=0, nan_ok=True)
        assert row.ci_halfwidth == pytest.approx(ci, rel=1e-12, abs=0, nan_ok=True)
    if num_users > 1:     # the user that never survives, and the one that survives once
        never = [r for r in rows if r.user == num_users - 2]
        assert all(math.isnan(r.value) and math.isnan(r.ci_halfwidth) for r in never)
        once = [r for r in rows if r.user == num_users - 1 and r.metric == "to_err_var"]
        assert all(r.value == 0.0 and math.isnan(r.ci_halfwidth) for r in once)
    plain = harness.aggregate_point("cfo_value", 0.25, table, absorbed=False)
    assert ([(r.user, r.variant, r.metric) for r in plain]
            == [(r.user, r.variant, r.metric) for r in rows if r.variant != "absorbed"])


def test_aggregate_counts_failures():
    ok = harness.UserTrialRecord(user=0, theta_true=1, theta_first=1,
                                 theta_max=1, eps_true=0.0, eps_hat=0.1,
                                 nmse=0.5)
    bad = harness.UserTrialRecord(user=0, failed=True, error="x")
    table = harness.record_table([[ok], [bad], [ok]])
    rows = harness.aggregate_point("snr_db", 10.0, table, absorbed=False)
    for row in rows:
        assert row.n_trials == 3
        assert row.n_failed == 1
    mse = next(r for r in rows if r.metric == "cfo_mse")
    assert mse.value == pytest.approx(0.01)


def test_experiment_spec_validation():
    with pytest.raises(ConfigError, match="sweep_var"):
        harness.ExperimentSpec("x", "bandwidth", (1.0,), 1).validate()
    with pytest.raises(ConfigError, match="nonempty"):
        harness.ExperimentSpec("x", "snr_db", (), 1).validate()
    with pytest.raises(ConfigError, match="sorted"):
        harness.ExperimentSpec("x", "snr_db", (10.0, 0.0), 1).validate()
    with pytest.raises(ConfigError, match="trials"):
        harness.ExperimentSpec("x", "snr_db", (0.0,), 0).validate()


def test_experiment_spec_text_round_trip():
    text = """
    name = demo
    sweep_var = snr_db
    sweep_points = 0, 10
    trials = 3
    absorbed_baseline = true
    config.num_users = 2
    config.nu_max_t = 1.0
    """
    spec = harness.parse_experiment_text(text)
    assert spec.name == "demo"
    assert spec.sweep_points == (0.0, 10.0)
    assert spec.absorbed_baseline
    assert ("num_users", "2") in spec.config_overrides
    again = harness.parse_experiment_text(harness.experiment_text(spec))
    assert again == spec
    # points that six significant digits would round are written in full
    odd = replace(spec, sweep_points=(0.0, 0.1234567, 1 / 3, 10.0))
    assert harness.parse_experiment_text(harness.experiment_text(odd)) == odd


@pytest.mark.parametrize("name", ["../../escape", "a/b", "", ".", "..", "/abs"])
def test_spec_name_must_be_one_directory(name):
    # the name is the output directory under the root: a path would write
    # outside it, and an empty name or "." into the root itself
    text = f"name = {name}\nsweep_var = snr_db\nsweep_points = 0\ntrials = 1\n"
    with pytest.raises(ConfigError, match="one directory name"):
        harness.parse_experiment_text(text)


@pytest.mark.parametrize("repeated, fragment", [
    ("trials = 5", "line 6: key 'trials' repeats line 4"),
    ("config.num_users = 4", "line 6: key 'config.num_users' repeats line 5"),
], ids=["flat-key", "config-key"])
def test_repeated_spec_key_is_an_error(repeated, fragment):
    # a repeated flat key was taken at its last value, and a repeated
    # config. key kept both overrides, the last one winning
    text = ("name = x\nsweep_var = snr_db\nsweep_points = 0\ntrials = 2\n"
            f"config.num_users = 2\n{repeated}\n")
    with pytest.raises(ConfigError, match=fragment):
        harness.parse_experiment_text(text)


def test_experiment_unknown_key():
    with pytest.raises(ConfigError, match="unknown experiment key"):
        harness.parse_experiment_text("name = x\nsweeps = 1\n")


def test_run_experiment_csv_shape(tmp_path):
    spec = harness.ExperimentSpec(
        name="one-point", sweep_var="snr_db", sweep_points=(20.0,), trials=1,
        config_overrides=(("num_users", "2"), ("channel_model", "single-tap"),
                          ("nu_max_t", "0.0")))
    report = harness.run_experiment(spec, out_dir=tmp_path)
    csv_path = tmp_path / "one-point" / "results.csv"
    lines = csv_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["sweep_var", "sweep_value", "user", "variant", "metric",
                      "value", "ci_halfwidth", "n_trials", "n_failed"]
    # 2 users x (2 TO variants x 2 metrics + cfo_mse + 2 nmse metrics)
    assert len(lines) - 1 == 2 * (2 * 2 + 1 + 2)
    assert (tmp_path / "one-point" / "spec-echo").exists()
    assert report.n_trials == 2


def test_run_experiment_per_trial_dump(tmp_path):
    spec = harness.ExperimentSpec(
        name="dumped", sweep_var="snr_db", sweep_points=(20.0,), trials=2,
        per_trial_dump=True,
        config_overrides=(("num_users", "1"), ("channel_model", "single-tap"),
                          ("nu_max_t", "0.0")))
    harness.run_experiment(spec, out_dir=tmp_path)
    dump = (tmp_path / "dumped" / "per-trial.jsonl").read_text().strip()
    entries = [json.loads(line) for line in dump.splitlines()]
    assert len(entries) == 2
    assert {e["trial"] for e in entries} == {0, 1}


def strict_json(line):
    """json.loads that rejects the NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(line, parse_constant=reject)


def test_per_trial_dump_is_strict_json(tmp_path):
    # no pilot fails every record of the first point and leaves its estimates
    # NaN, the skipped absorbed baseline leaves nmse_absorbed NaN, and the
    # first sweep value is -inf: each is written as null
    spec = harness.ExperimentSpec(
        name="strict", sweep_var="pilot_power_db", sweep_points=(-math.inf, 40.0),
        trials=2, per_trial_dump=True,
        config_overrides=(("num_users", "1"), ("channel_model", "single-tap"),
                          ("nu_max_t", "0.0")))
    harness.run_experiment(spec, out_dir=tmp_path)
    with open(tmp_path / "strict" / "per-trial.jsonl", encoding="utf-8") as fh:
        entries = [strict_json(line) for line in fh]
    assert len(entries) == 4
    for entry in entries:
        assert entry["nmse_absorbed"] is None
        if entry["sweep_value"] is None:
            assert entry["failed"] and "rank" in entry["error"]
            assert entry["eps_hat"] is None and entry["nmse"] is None
        else:
            assert not entry["failed"] and isinstance(entry["eps_hat"], float)


def test_run_experiment_deterministic_csv(tmp_path):
    spec = harness.ExperimentSpec(
        name="det", sweep_var="snr_db", sweep_points=(0.0, 20.0), trials=2,
        config_overrides=(("num_users", "2"), ("nu_max_t", "1.0"),
                          ("channel_model", "eva")))
    a = harness.run_experiment(spec, out_dir=tmp_path / "a").to_csv_text()
    b = harness.run_experiment(spec, out_dir=tmp_path / "b").to_csv_text()
    assert a == b
    assert (tmp_path / "a" / "det" / "results.csv").read_bytes() == \
           (tmp_path / "b" / "det" / "results.csv").read_bytes()


def test_workers_do_not_change_results():
    cfg_overrides = (("num_users", "1"), ("channel_model", "single-tap"),
                     ("nu_max_t", "0.0"))
    spec = harness.ExperimentSpec(name="par", sweep_var="snr_db",
                                  sweep_points=(20.0,), trials=4,
                                  config_overrides=cfg_overrides)
    serial = harness.run_experiment(spec).to_csv_text()
    parallel = harness.run_experiment(spec, workers=2).to_csv_text()
    assert serial == parallel


# both sweeps share each trial's draw across all of their points: an SNR sweep
# rescales its unit noise, a cfo_value sweep rotates its zero-CFO stream
SHARED_DRAW_SWEEPS = {
    "snr_db": ([apply_overrides(SystemConfig(num_users=2, nu_max_t=1.0, rng_seed=5),
                                {"snr_db": snr}) for snr in ("0", "20", "inf")],
               [None] * 3, False),
    "cfo_value": ([SystemConfig(num_users=2, channel_model="eva-bem", rng_seed=5)] * 3,
                  [-0.4, 0.0, 0.3], True),
}


def equal_tables(a, b):
    return a.keys() == b.keys() and all(
        np.array_equal(a[name], b[name], equal_nan=a[name].dtype.kind == "f") for name in a)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("sweep_var", list(SHARED_DRAW_SWEEPS))
def test_shared_draw_gives_each_points_own_records(sweep_var, workers):
    cfgs, cfo_values, absorbed = SHARED_DRAW_SWEEPS[sweep_var]
    trials = 3
    tables = harness.run_point(list(zip(cfgs, cfo_values)), trials, absorbed=absorbed,
                               workers=workers)
    assert len(tables) == len(cfgs)
    for table, cfg, cfo_value in zip(tables, cfgs, cfo_values):
        # a fresh draw of the same kind: an SNR sweep's draw has a lane per point
        lanes = [(c.snr_db, cfo) for c, cfo in zip(cfgs, cfo_values)]
        fresh = [harness.run_trial(cfg, k, cfo_value=cfo_value, absorbed=absorbed,
                                   draw=harness.draw_trial(cfg, k, lanes))[0]
                 for k in range(trials)]
        assert equal_tables(table, harness.record_table(fresh))


@pytest.mark.parametrize("sweep_var, channel_calls", [("snr_db", 2), ("cfo_value", 2)])
def test_channel_runs_once_per_draw(monkeypatch, sweep_var, channel_calls):
    # 2 trials: one draw per trial index, whatever the number of points
    calls = {}
    for owner, name in ((chan, "apply_channel"), (chan, "draw_realization"),
                        (modem, "transmit"), (harness, "true_pilot_taps")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, original=original:
                            calls.setdefault(name, []).append(args) or original(*args))
    cfgs, cfo_values, absorbed = SHARED_DRAW_SWEEPS[sweep_var]
    harness.run_point(list(zip(cfgs, cfo_values)), 2, absorbed=absorbed)
    counts = {name: len(args) for name, args in calls.items()}
    assert counts == {"apply_channel": channel_calls, "draw_realization": channel_calls,
                      "transmit": channel_calls, "true_pilot_taps": 2 * channel_calls}


# (num_users, genie_to, absorbed): Q = 1 and both user counts of fig4a, a
# genie timing offset, and the absorbed baseline on an SNR sweep
PER_POINT_CASES = [(1, False, False), (2, False, False), (4, False, False),
                   (2, True, False), (2, False, True)]
# at -20 dB most users' theta_hat moves off the other points', so a draw's
# projections serve some of its points and not others
SWEEP_SNRS = ("-20", "0", "15", "inf")


@pytest.mark.parametrize("num_users, genie_to, absorbed", PER_POINT_CASES)
def test_snr_sweep_matches_the_per_point_chain(num_users, genie_to, absorbed):
    base = SystemConfig(num_users=num_users, genie_to=genie_to, rng_seed=17)
    cfgs = [apply_overrides(base, {"snr_db": snr}) for snr in SWEEP_SNRS]
    trials = 3
    tables = harness.run_point([(cfg, None) for cfg in cfgs], trials, absorbed=absorbed)
    floats = ("eps_hat", "nmse") + (("nmse_absorbed",) if absorbed else ())
    for cfg, table in zip(cfgs, tables):
        for k in range(trials):
            for q, want in enumerate(per_point_trial(cfg, k, absorbed)):
                assert not table["failed"][k, q]
                assert table["theta_first"][k, q] == want["theta_first"]
                assert table["theta_max"][k, q] == want["theta_max"]
                for name in floats:
                    assert table[name][k, q] == pytest.approx(want[name], rel=1e-9, abs=0)


def test_an_snr_lanes_region_is_the_per_point_chains():
    # a lane of a shared draw reads its pilot region, kept as the (signal,
    # unit noise) pair, at its own noise amplitude a; at a != 0 that is the
    # region of a one-lane front end, which adds the noise before the bank
    base = SystemConfig(num_users=2, rng_seed=17)
    cfgs = [apply_overrides(base, {"snr_db": snr}) for snr in ("0", "20")]
    trial = 1
    draw = harness.draw_trial(base, trial, [(cfg.snr_db, None) for cfg in cfgs])
    assert draw.front.separated.shape[:2] == (1, 2)
    for q in range(base.num_users):
        theta = int(draw.realization.to[q])         # one region for both lanes
        regions, _ = sync.synchronize_user(draw.front, q, theta, [0, 1])
        assert regions.shape == (2, base.n, base.zc_len)
        for lane, (cfg, got) in enumerate(zip(cfgs, regions)):
            assert draw.front.amplitude[lane] > 0
            alone = harness.draw_trial(cfg, trial)
            (want,), _ = sync.synchronize_user(alone.front, q, theta, [0])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_one_cfo_projection_per_user_and_theta_per_draw(monkeypatch):
    shapes = []
    cost_many = sync.BemRegressor.cost_many
    monkeypatch.setattr(sync.BemRegressor, "cost_many",
                        lambda self, rows: shapes.append(rows.shape) or cost_many(self, rows))
    base = SystemConfig(num_users=4, rng_seed=17)
    cfgs = [apply_overrides(base, {"snr_db": snr}) for snr in ("-20", "10", "inf")]
    trials = 4
    tables = harness.run_point([(cfg, None) for cfg in cfgs], trials)
    thetas = np.stack([table["theta_first"] for table in tables])     # (point, trial, user)
    distinct = sum(len(set(thetas[:, k, q])) for k, q in np.ndindex(trials, 4))
    assert distinct > trials * 4       # some users' theta_hat moves between points
    assert len(shapes) == distinct
    assert all(shape[-3] == 2 for shape in shapes)  # the signal and the unit noise


def test_one_cfo_search_per_user_and_theta_per_draw(monkeypatch):
    # each user's search runs once per theta_hat and draw, with one lane per
    # point that reaches that theta_hat, so every (point, user) gets one lane
    lanes = []
    estimate_cfo = sync.estimate_cfo
    monkeypatch.setattr(sync, "estimate_cfo",
                        lambda samples, bundle, cfg, amplitudes: lanes.append(len(amplitudes))
                        or estimate_cfo(samples, bundle, cfg, amplitudes))
    base = SystemConfig(num_users=4, rng_seed=17)
    cfgs = [apply_overrides(base, {"snr_db": snr}) for snr in ("-20", "10", "inf")]
    trials = 4
    tables = harness.run_point([(cfg, None) for cfg in cfgs], trials)
    thetas = np.stack([table["theta_first"] for table in tables])     # (point, trial, user)
    distinct = sum(len(set(thetas[:, k, q])) for k, q in np.ndindex(trials, 4))
    assert distinct > trials * 4       # some users' theta_hat moves between points
    assert len(lanes) == distinct
    assert sum(lanes) == len(cfgs) * trials * 4
    assert max(lanes) == len(cfgs)     # and some search serves every point


def pinned_points(genie_to=False):
    """One pinned run (``draw_runs``): a repeated CFO point and mixed SNRs.
    At -30 dB most users' theta_hat moves off the other points'."""
    cfg = SystemConfig(num_users=2, channel_model="eva-bem", genie_to=genie_to, rng_seed=9)
    inf, low = (apply_overrides(cfg, {"snr_db": snr}) for snr in ("inf", "-30"))
    points = [(cfg, -0.4), (cfg, 0.0), (cfg, 0.0), (inf, 0.3), (low, 0.3)]
    assert harness.draw_runs(points) == [points]
    return points


@pytest.mark.parametrize("genie_to", [False, True])
def test_pinned_run_gives_each_points_own_trial_bit_for_bit(genie_to):
    # each pinned point is a lane with a stream of its own, so sharing the
    # draw, the searches and the absorbed fits changes no bit of its records
    points = pinned_points(genie_to)
    trials = 3
    tables = harness.run_point(points, trials, absorbed=True)
    for table, (cfg, cfo_value) in zip(tables, points):
        assert not table["failed"].any()
        fresh = [harness.run_trial(cfg, k, cfo_value=cfo_value, absorbed=True)[0]
                 for k in range(trials)]
        assert equal_tables(table, harness.record_table(fresh))
    assert equal_tables(tables[1], tables[2])      # the repeated point reads one lane
    # and so do the timing curves and the CFO cost curves of the dump
    lanes = [(cfg.snr_db, cfo_value) for cfg, cfo_value in points]
    for k in range(trials):
        draw = harness.draw_trial(points[0][0], k, lanes)
        for cfg, cfo_value in points:
            _, shared = harness.run_trial(cfg, k, cfo_value=cfo_value, collect_debug=True,
                                          draw=draw)
            assert shared == harness.run_trial(cfg, k, cfo_value=cfo_value,
                                               collect_debug=True)[1]


def test_one_cfo_search_per_user_and_theta_per_pinned_draw(monkeypatch):
    # a pinned draw searches each user at each theta_hat once, for every lane
    # that reaches it, and fits the absorbed baseline of those lanes in the
    # same pass, each lane as its region alone would be fitted
    searches, fits = [], []
    estimate_cfo, fit = sync.estimate_cfo, harness.absorbed_channel_fit
    monkeypatch.setattr(sync, "estimate_cfo",
                        lambda samples, bundle, cfg, amplitudes: searches.append(len(amplitudes))
                        or estimate_cfo(samples, bundle, cfg, amplitudes))
    monkeypatch.setattr(harness, "absorbed_channel_fit",
                        lambda *args: fits.append((args, fit(*args))) or fits[-1][1])
    points = pinned_points()
    trials, num_users, lanes = 4, 2, 4          # the repeated point is one lane
    tables = harness.run_point(points, trials, absorbed=True)
    thetas = np.stack([table["theta_first"] for table in tables])     # (point, trial, user)
    searched = {(k, q, theta) for (p, k, q), theta in np.ndenumerate(thetas)}
    assert len(searched) > trials * num_users        # some theta_hat moves between points
    assert len(searches) == len(searched)
    assert sum(searches) == trials * num_users * lanes
    assert max(searches) == lanes                    # and some search serves every lane
    assert len(fits) == len(searched)
    assert sum(len(regions) for (regions, *_), _ in fits) == trials * num_users * lanes
    for (regions, cfg, user, theta, beta), got in fits:
        assert regions.ndim == 3
        for region, h_abs in zip(regions, got):
            assert np.array_equal(h_abs, fit(region, cfg, user, theta, beta))


def test_a_repeated_snr_point_gives_equal_records():
    # the copies share one lane, and their records equal those of the sweep
    # without the copy
    base = SystemConfig(num_users=2, nu_max_t=1.0, rng_seed=5)
    cfgs = [apply_overrides(base, {"snr_db": snr}) for snr in ("0", "0", "20")]
    tables = harness.run_point([(cfg, None) for cfg in cfgs], 3)
    assert equal_tables(tables[0], tables[1])
    alone = harness.run_point([(cfgs[0], None), (cfgs[2], None)], 3)
    assert equal_tables(tables[0], alone[0]) and equal_tables(tables[2], alone[1])


def test_front_end_is_shared_only_by_a_draw_that_serves_several_points(monkeypatch):
    # each draw gets the lanes of the run of points it serves; only a draw
    # with several SNR lanes keeps the stream and the noise apart, in one
    # stream of K = 2 rows.  A lone SNR point and each Doppler point have one
    # lane, and each point of a cfo_value sweep one lane of its own, whose
    # K = 1 stream holds its noise: their records equal a fresh run_trial's
    draws = []
    draw_trial = harness.draw_trial
    monkeypatch.setattr(harness, "draw_trial",
                        lambda cfg, k, *args: draws.append(draw_trial(cfg, k, *args))
                        or draws[-1])
    base = SystemConfig(num_users=2, nu_max_t=1.0, rng_seed=5)
    doppler = [apply_overrides(base, {"nu_max_t": nu}) for nu in ("0.5", "1.5")]
    # per draw: the (S, K) streams of its front end and its lanes
    cases = [(SHARED_DRAW_SWEEPS["snr_db"][:2],
              [((1, 2), ((0.0, None), (20.0, None), (math.inf, None)))]),
             (([base], [None]), [((1, 1), ((20.0, None),))]),
             ((doppler, [None] * 2), [((1, 1), ((20.0, None),))] * 2),
             (SHARED_DRAW_SWEEPS["cfo_value"][:2], [((3, 1), tuple(
                 (20.0, cfo) for cfo in SHARED_DRAW_SWEEPS["cfo_value"][1]))])]
    trials = 2
    for (cfgs, cfo_values), want in cases:
        draws.clear()
        tables = harness.run_point(list(zip(cfgs, cfo_values)), trials)
        assert [(d.front.separated.shape[:2], d.lanes) for d in draws] == want * trials
        if all(stack < 2 for (_, stack), _ in want):
            for table, cfg, cfo_value in zip(tables, cfgs, cfo_values):
                fresh = [harness.run_trial(cfg, k, cfo_value=cfo_value)[0]
                         for k in range(trials)]
                assert equal_tables(table, harness.record_table(fresh))


def test_draw_trial_builds_the_lane_table():
    # the draw de-duplicates its lanes and chooses which received stream each
    # lane reads at which noise amplitude; each stream is separated bit for
    # bit as the per-stream chain, and each lane's curves are its own
    cfg = SystemConfig(num_users=4, snr_db=10.0).validate()
    # one lane (K = 1): the stream with its noise; a repeated SNR is one lane
    for lanes in (None, [(10.0, None)], [(10.0, None)] * 2):
        draw = harness.draw_trial(cfg, 0, lanes)
        front = draw.front
        assert draw.lanes == ((10.0, None),)
        assert front.stream.tolist() == [0] and front.amplitude.tolist() == [0.0]
        separated, corr = front_end_chain(chan.add_awgn(draw.rx, cfg.snr_db, draw.noise),
                                          draw.pcp, cfg)
        assert np.array_equal(front.separated, separated[np.newaxis, np.newaxis])
        assert np.array_equal(front.curves, sync.timing_curve(corr, cfg)[np.newaxis])
    # several SNR lanes (K = 2): one stream of two rows, the stream and the
    # unit noise, each lane at the noise amplitude of its SNR
    draw = harness.draw_trial(cfg, 0, [(snr, None) for snr in (0.0, 20.0, 0.0, math.inf)])
    front = draw.front
    assert draw.lanes == ((0.0, None), (20.0, None), (math.inf, None))
    assert front.stream.tolist() == [0, 0, 0]
    assert front.amplitude.tolist() == [chan.noise_amplitude(snr) for snr, _ in draw.lanes]
    assert front.separated.shape == (1, 2, 4, cfg.m * cfg.n)
    (separated_rx, corr_rx), (separated_noise, corr_noise) = (
        front_end_chain(row, draw.pcp, cfg) for row in (draw.rx, draw.noise))
    assert np.array_equal(front.separated[0, 0], separated_rx)
    assert np.array_equal(front.separated[0, 1], separated_noise)
    for (snr, _), curves in zip(draw.lanes, front.curves):
        assert np.array_equal(curves, sync.timing_curve(chan.add_awgn(corr_rx, snr, corr_noise),
                                                        cfg))
    # pinned CFOs (K = 1 each): the zero-CFO stream rotated by its CFO, with
    # its noise, a stream of its own per lane; a repeated lane is one lane
    lanes = [(10.0, -0.4), (10.0, 0.0), (math.inf, 0.3), (10.0, 0.0)]
    draw = harness.draw_trial(cfg, 0, lanes)
    front = draw.front
    assert draw.lanes == tuple(lanes[:3])
    assert front.stream.tolist() == [0, 1, 2] and front.amplitude.tolist() == [0.0] * 3
    assert front.separated.shape == (3, 1, 4, cfg.m * cfg.n)
    for (snr, cfo), separated, curves in zip(draw.lanes, front.separated, front.curves):
        want_separated, want_corr = front_end_chain(
            chan.add_awgn(draw.rx * chan.cfo_rotation(cfo, cfg.n_s), snr, draw.noise),
            draw.pcp, cfg)
        assert np.array_equal(separated[0], want_separated)
        assert np.array_equal(curves, sync.timing_curve(want_corr, cfg))


def test_draw_serves_configs_that_differ_only_in_snr():
    # a run of points (``draw_runs``) is the set one draw serves
    cfg = SystemConfig(num_users=2, snr_db=10.0)
    inf, zero = (apply_overrides(cfg, {"snr_db": snr}) for snr in ("inf", "0"))
    # points that differ only in snr_db share a run
    assert harness.draw_runs([(cfg, None), (inf, None), (zero, None)]) == [
        [(cfg, None), (inf, None), (zero, None)]]
    # the channel, the pilot power and the seed split a run
    for field, value in (("nu_max_t", "1.0"), ("pilot_power_db", "30"), ("rng_seed", "1")):
        other = apply_overrides(cfg, {field: value})
        for cfo_value in (None, 0.3):
            points = [(cfg, cfo_value), (other, cfo_value)]
            assert harness.draw_runs(points) == [points[:1], points[1:]]
    # a random-CFO draw serves no pinned point
    assert harness.draw_runs([(cfg, None), (cfg, 0.0)]) == [[(cfg, None)], [(cfg, 0.0)]]


def test_pinned_draw_serves_every_pinned_cfo():
    cfg = SystemConfig(num_users=2, snr_db=10.0)
    inf = apply_overrides(cfg, {"snr_db": "inf"})
    # a pinned run spans several pinned CFOs and SNRs
    pinned = [(cfg, -0.4), (cfg, 0.0), (inf, 0.3)]
    assert harness.draw_runs(pinned) == [pinned]
    # and its draw has zero CFOs
    assert np.array_equal(harness.draw_trial(cfg, 3, [(10.0, 0.3)]).realization.cfo,
                          [0.0, 0.0])
    # it serves no random-CFO point
    assert harness.draw_runs([(cfg, 0.3), (cfg, None)]) == [[(cfg, 0.3)], [(cfg, None)]]


def test_draw_arrays_are_read_only():
    cfg = SystemConfig(num_users=2)
    draw = harness.draw_trial(cfg, 0, [(20.0, -0.4), (20.0, 0.3)])
    arrays = (draw.rx, draw.noise, draw.pcp, draw.realization.to, draw.realization.cfo,
              *draw.truth)
    assert len(arrays) == 7
    # every front end keeps its streams and each lane's timing curves: a
    # pinned draw a stream per pinned CFO, a one-lane draw one stream, and a
    # shared draw one stream of two rows for both of its lanes
    one = harness.draw_trial(cfg, 0)
    shared = harness.draw_trial(cfg, 0, [(20.0, None), (0.0, None)])
    fronts = (draw.front, one.front, shared.front)
    assert [(front.separated.shape[:2], front.curves.shape) for front in fronts] == [
        ((2, 1), (2, 2, cfg.m)), ((1, 1), (1, 2, cfg.m)), ((1, 2), (2, 2, cfg.m))]
    for array in arrays + tuple(array for front in fronts
                                for array in (front.separated, front.curves)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


@pytest.mark.parametrize("n, num_users", [(32, 1), (32, 2), (32, 3), (32, 4), (8, 3), (4, 4)])
def test_filter_bank_passes_all_of_the_data(monkeypatch, n, num_users):
    # each user's data and pilot lie in the Doppler band its receive filter
    # passes, so the bank loses none of a noiseless identity-channel stream,
    # also when Q does not divide N (the N % Q remainder bins then carry
    # neither); the pilot is off, then on at either end of the band
    base = SystemConfig(n=n, num_users=num_users, channel_model="identity", snr_db=math.inf,
                        cfo_max=0.0, theta_max=0, nu_max_t=0.5, cfo_range=0.5)
    data, sent = [], []
    build, embed = modem.build_data_frame, pilot.embed_pilots
    monkeypatch.setattr(modem, "build_data_frame",
                        lambda *args: data.append(build(*args)) or data[-1])
    monkeypatch.setattr(pilot, "embed_pilots",
                        lambda *args: sent.append(embed(*args)) or sent[-1])
    for pilot_power_db, offset in ((-math.inf, -1), (40.0, 0), (40.0, base.band - 1)):
        cfg = replace(base, pilot_power_db=pilot_power_db, pilot_offset=offset).validate()
        data.clear()
        draw = harness.draw_trial(cfg, 0)
        y = modem.remove_cp(draw.rx[cfg.theta_max:], cfg.cp_rem, out_len=cfg.m * cfg.n)
        separated = sync.separate_user(y, cfg)
        ratio = np.sum(np.abs(separated) ** 2) / np.sum(np.abs(y) ** 2)
        assert abs(ratio - 1.0) < 1e-12
        data_rows = np.ones(cfg.m, dtype=bool)
        data_rows[list(pilot.guard_rows(cfg))] = False
        assert len(data) == num_users
        for q, (frame, stacked) in enumerate(zip(data, sent[-1])):
            band = sync.doppler_mask(cfg, q)
            assert np.array_equal(frame != 0, data_rows[:, np.newaxis] & band)
            # the whole frame, data and pilot, lies in the band
            assert not np.any(stacked[:, ~band])
            pilot_column = stacked[~data_rows, cfg.pilot_bin(q)]
            assert np.all(pilot_column != 0) == (pilot_power_db > -math.inf)


def test_cfo_value_sweep_pins_cfo():
    cfg = quick_config(num_users=1, channel_model="eva-bem", nu_max_t=0.5)
    records, _ = harness.run_trial(cfg, 0, cfo_value=0.3)
    assert records[0].eps_true == pytest.approx(0.3)


def test_failed_trials_recorded_not_raised():
    # an unusable pilot (zero power against loading 0 would raise deep inside),
    # in a lone trial, and at each point of a two-point SNR draw and of a
    # two-point pinned draw, where the failed search fails every lane of its group
    cfg = quick_config(num_users=2, channel_model="eva", nu_max_t=2.91,
                       snr_db=0.0)
    bad = apply_overrides(cfg, {"pilot_power_db": "-inf"})
    by_point = [harness.run_trial(bad, 0)[0]]
    for lanes in ([(0.0, None), (20.0, None)], [(0.0, -0.3), (0.0, 0.3)]):
        draw = harness.draw_trial(bad, 0, lanes)
        for snr, cfo_value in lanes:
            point = apply_overrides(bad, {"snr_db": str(snr)})
            records, debug = harness.run_trial(point, 0, cfo_value=cfo_value, absorbed=True,
                                               collect_debug=True, draw=draw)
            assert debug == []
            alone, _ = harness.run_trial(point, 0, cfo_value=cfo_value, absorbed=True)
            assert equal_tables(harness.record_table([records]),
                                harness.record_table([alone]))
            by_point.append(records)
    assert len(by_point) == 5
    for records in by_point:
        assert len(records) == 2
        assert all(r.failed for r in records)
        assert all("rank" in r.error for r in records)
        assert all(r.theta_first == r.theta_max == 0 for r in records)


def test_a_failed_absorbed_fit_keeps_the_compensated_estimates(monkeypatch):
    # the search of a group succeeds and its absorbed fit fails: every lane of
    # the group is failed with the fit's message, its estimates kept
    def fail(*args):
        raise EstimationError("absorbed fit failed")

    monkeypatch.setattr(harness, "absorbed_channel_fit", fail)
    cfg = SystemConfig(num_users=2, channel_model="eva-bem", rng_seed=5)
    draw = harness.draw_trial(cfg, 0, [(20.0, None), (30.0, None)])
    for lane, snr in enumerate((20.0, 30.0)):
        records, debug = harness.run_trial(replace(cfg, snr_db=snr), 0, absorbed=True,
                                           collect_debug=True, draw=draw)
        assert debug == []
        for q, rec in enumerate(records):
            assert rec.failed and rec.error == "absorbed fit failed"
            assert rec.theta_first == draw.front.to_estimate.first_peak[lane, q]
            assert math.isfinite(rec.eps_hat) and math.isfinite(rec.nmse)
            assert math.isnan(rec.nmse_absorbed)


def test_report_value_lookup():
    spec = harness.ExperimentSpec(
        name="look", sweep_var="snr_db", sweep_points=(20.0,), trials=1,
        config_overrides=(("num_users", "1"), ("channel_model", "single-tap"),
                          ("nu_max_t", "0.0")))
    report = harness.run_experiment(spec)
    val = report_value(report, 20.0, 0, "first-peak", "to_mean_abs_err")
    assert val == 0.0


@st.composite
def small_configs(draw):
    """Small configs across every channel model, drawn
    relative to the validation rules so that most draws are valid."""
    m, n = draw(st.integers(1, 24)), draw(st.integers(1, 12))
    num_users = draw(st.integers(1, min(4, m, n)))
    zc_len = draw(st.integers(1, min(6, (m + 1) // 2)))
    theta_max = draw(st.integers(0, 3))
    channel_len_cap = draw(st.integers(1, 10))
    # the BEM order, drawn or default, must not exceed the Doppler axis
    nu_max_t = draw(st.sampled_from(
        [nu for nu in (0.0, 0.5, 1.3, 2.91) if default_bem_order(nu) <= n]))
    half_band = (n // num_users) / 2
    return SystemConfig(
        m=m, n=n, num_users=num_users, zc_len=zc_len,
        zc_root=draw(st.sampled_from([r for r in (1, 2, 3) if math.gcd(r, zc_len) == 1])),
        theta_max=theta_max, channel_len_cap=channel_len_cap,
        cp_len=max(0, channel_len_cap + theta_max - 1) + draw(st.integers(0, 2)),
        pilot_anchor=draw(st.just(-1) | st.integers(zc_len - 1, m - zc_len)),
        pilot_offset=draw(st.just(-1) | st.integers(0, n // num_users - 1)),
        snr_db=draw(st.sampled_from((math.inf, 20.0, 0.0))),
        pilot_power_db=draw(st.sampled_from((40.0, 0.0))),
        nu_max_t=nu_max_t,
        bem_order=draw(st.just(0) | st.integers(bem_order_bound(nu_max_t), min(12, n))),
        threshold=draw(st.sampled_from((0.25, 1.0))),
        cfo_range=draw(st.sampled_from([r for r in (0.25, 0.5, 2.0) if r <= half_band])),
        cfo_step=draw(st.sampled_from((0.02, 0.1, 0.3))),
        cfo_max=draw(st.sampled_from((0.0, 0.5))),
        channel_model=draw(st.sampled_from(CHANNEL_MODELS)),
        genie_to=draw(st.booleans()))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(cfg=small_configs(), absorbed=st.booleans())
def test_valid_configs_run_or_fail_with_a_record(cfg, absorbed):
    assume(not cfg.violations())
    try:
        records, _ = harness.run_trial(cfg, 0, absorbed=absorbed)
    except OtfsyncError:
        return
    assert len(records) == cfg.num_users
    assert all(rec.error for rec in records if rec.failed)


def test_pilot_power_sweep_writes_each_points_pilot_snr(tmp_path):
    spec = harness.ExperimentSpec(
        name="pilot-sweep", sweep_var="pilot_power_db", sweep_points=(0.0, 10.0, 12.3456789),
        trials=1, config_overrides=(("num_users", "1"), ("channel_model", "single-tap"),
                                    ("nu_max_t", "0.0"), ("snr_db", "15")))
    report = harness.run_experiment(spec, out_dir=tmp_path)
    assert {row.sweep_value for row in report.rows} == {0.0, 10.0, 12.3456789}
    assert report.n_trials == 3 and report.n_failed == 0
    echo = (tmp_path / "pilot-sweep" / "spec-echo").read_text()
    assert "# pilot_power_db = 0: pilot SNR per bin 15 dB" in echo
    assert "# pilot_power_db = 10: pilot SNR per bin 25 dB" in echo
    # a point that :g would round is echoed in full, in the comment lines too
    assert "sweep_points = 0, 10, 12.3456789\n" in echo
    assert "# pilot_power_db = 12.3456789: pilot SNR per bin 27.3457 dB" in echo
    assert harness.parse_experiment_text(harness.experiment_text(spec)) == spec


def test_absorbed_trial_evaluates_the_true_taps_once_per_user(monkeypatch):
    calls = []
    original = harness.true_pilot_taps
    monkeypatch.setattr(harness, "true_pilot_taps",
                        lambda *args: calls.append(args) or original(*args))
    cfg = SystemConfig(num_users=2, channel_model="eva-bem", snr_db=20.0).validate()
    records, _ = harness.run_trial(cfg, 0, cfo_value=0.3, absorbed=True)
    assert len(calls) == 2 and not any(rec.failed for rec in records)


# (user, theta_first, theta_max, eps_hat, nmse, nmse_absorbed) per trial, as the
# dense-Q estimator computed them at rng_seed 20250809; the slot-structured one
# must reproduce them to rounding
GOLDEN = {
    ("eva", 4, None): [
        [(0, 2, 2, 0.4463389884660604, 1.2704973358235674, None),
         (1, 4, 4, -1.2247450614067583, 1.6807886936714012, None),
         (2, 2, 2, 0.21822942704616358, 2.1248160897265076, None),
         (3, 2, 4, -0.3404322507036246, 2.14573871167601, None)],
        [(0, 3, 4, 1.6102351682580245, 1.8529653567016702, None),
         (1, 0, 1, 1.8671685236411695, 2.045338834503791, None),
         (2, 1, 2, 1.635275843288096, 1.789131909869538, None),
         (3, 0, 1, 0.08251787198748502, 0.7999599839253141, None)]],
    ("eva-bem", 2, 0.3): [
        [(0, 0, 0, 0.3978405256451353, 0.20598157837532782, 0.07202599343179382),
         (1, 0, 0, 0.37417778401329704, 0.17056550654256655, 0.10291260575473045)],
        [(0, 4, 4, 0.22531820216759857, 0.14969821055683297, 0.08229798102845438),
         (1, 2, 3, 0.32020815546474585, 0.05247712636219273, 0.07912950709528659)]],
}


@pytest.mark.parametrize("model, num_users, cfo_value", list(GOLDEN))
def test_golden_records(model, num_users, cfo_value):
    cfg = SystemConfig(num_users=num_users, channel_model=model, rng_seed=20250809,
                       **({"snr_db": 20.0} if cfo_value is not None else {})).validate()
    for k, want in enumerate(GOLDEN[(model, num_users, cfo_value)]):
        records, _ = harness.run_trial(cfg, k, cfo_value=cfo_value,
                                       absorbed=cfo_value is not None)
        for rec, (user, first, peak, eps_hat, nmse, nmse_abs) in zip(records, want):
            assert (rec.user, rec.theta_first, rec.theta_max) == (user, first, peak)
            assert rec.eps_hat == pytest.approx(eps_hat, rel=1e-9)
            assert rec.nmse == pytest.approx(nmse, rel=1e-9)
            if nmse_abs is None:
                assert math.isnan(rec.nmse_absorbed)
            else:
                assert rec.nmse_absorbed == pytest.approx(nmse_abs, rel=1e-9)


# two small sweeps at rng_seed 20250809; golden_sweeps.json holds their rows,
# totals and per-trial integer fields as the record-by-record (Welford)
# aggregation wrote them, which the (trials, Q) table reductions replaced.
# The absorbed rows at cfo_value 0 were re-pinned when the absorbed basis
# order came from the config alone (``absorbed_beta``): 7 -> 8 there
GOLDEN_SWEEPS = {
    "eva-snr": harness.ExperimentSpec(
        name="eva-snr", sweep_var="snr_db", sweep_points=(0.0, 20.0), trials=3,
        per_trial_dump=True,
        config_overrides=(("num_users", "2"), ("channel_model", "eva"))),
    "eva-bem-cfo": harness.ExperimentSpec(
        name="eva-bem-cfo", sweep_var="cfo_value", sweep_points=(0.0, 0.3), trials=3,
        absorbed_baseline=True,
        config_overrides=(("num_users", "2"), ("channel_model", "eva-bem"))),
}


@pytest.mark.parametrize("name", list(GOLDEN_SWEEPS))
def test_golden_sweeps(name, tmp_path):
    with open(os.path.join(os.path.dirname(__file__), "golden_sweeps.json"),
              encoding="utf-8") as fh:
        want = json.load(fh)[name]
    spec = GOLDEN_SWEEPS[name]
    report = harness.run_experiment(spec, SystemConfig(rng_seed=20250809), out_dir=tmp_path)
    assert (report.n_trials, report.n_failed) == (want["n_trials"], want["n_failed"])
    got = {(r.sweep_value, r.user, r.variant, r.metric): r for r in report.rows}
    assert len(got) == len(report.rows)
    assert set(got) == {tuple(row[:4]) for row in want["rows"]}
    for *key, value, ci in want["rows"]:
        row = got[tuple(key)]
        assert row.value == pytest.approx(value, rel=1e-9, abs=0, nan_ok=True)
        assert row.ci_halfwidth == pytest.approx(ci, rel=1e-9, abs=0, nan_ok=True)
    if spec.per_trial_dump:
        with open(tmp_path / name / "per-trial.jsonl", encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh]
        assert all(sorted(entry) == want["per_trial_keys"] for entry in entries)
        assert [[entry[k] for k in want["per_trial_fields"]] for entry in entries] \
            == want["per_trial"]
