"""The program's contract with the benchmark's span tracer
(``perfbench/tracing.py``), which wraps functions by name: the batched front
end runs inside traced stages once per draw, each point adds its noise in a
traced stage and runs the per-user back end once per user, each user's CFO
projection is one traced call inside its search, made once per theta_hat
and draw, and the users share their estimator bundles.  A ``cfo_value``
sweep filters each point's stream in a traced stage, lane by lane, and
batches its points' CFO searches and absorbed fits inside the traced
``estimate_cfo`` and ``absorbed_channel_fit``."""

import json
import os
import sys

from otfsync import harness, sync
from otfsync.config import SystemConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)
import tracing  # noqa: E402

USERS, TRIALS, POINTS = 4, 2, (10.0, 20.0)


def test_q4_eva_sweep_is_covered_by_traced_stages(tmp_path):
    spec = harness.ExperimentSpec("trace", "snr_db", POINTS, TRIALS,
                                  config_overrides=(("num_users", str(USERS)),),
                                  per_trial_dump=True)
    spans = tmp_path / "spans"
    spans.mkdir()
    sync._cached_bundle.cache_clear()     # count every bundle this sweep needs
    tracer = tracing.Tracer(str(spans))
    tracer.install()
    try:
        report = harness.run_experiment(spec, SystemConfig(rng_seed=11), out_dir=tmp_path)
    finally:
        tracer.uninstall()
    assert report.n_failed == 0
    summary = tracing.summarize(str(spans))
    stages = summary["stages"]
    calls, inclusive, own = stages[tracing.TRIAL_SPAN]
    assert calls == TRIALS * len(POINTS)
    # trace.coverage of perfbench/run.py: the share of run_trial in traced children
    assert 1.0 - own / inclusive >= 0.9
    # per_layer_metrics divides by the per-user call counts
    assert stages["sync.synchronize_user"][0] == USERS * TRIALS * len(POINTS)
    # the front end runs once per draw, and each point adds its noise once
    assert stages["sync.separate_user"][0] == TRIALS
    assert stages["sync.timing_correlate"][0] == TRIALS
    assert stages["channel.add_awgn"][0] == TRIALS * len(POINTS)
    # one projection, and one bundle fetch, per user, theta_hat and draw;
    # sync.cfo_coarse.ms reads the projections inside the CFO searches
    with open(tmp_path / "trace" / "per-trial.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    projections = {(rec["trial"], rec["user"], rec["theta_first"]) for rec in records}
    assert stages["sync.BemRegressor.cost_many"][0] == len(projections)
    assert summary["in_cfo"]["sync.BemRegressor.cost_many"] > 0
    assert stages["sync.estimator_bundle"][0] == len(projections)
    # one bundle per distinct theta_hat, whichever users it came from
    thetas = {rec["theta_first"] for rec in records}
    assert 1 <= stages["sync.build_bem_regressor"][0] <= len(thetas)


def test_cfo_sweep_batches_its_points_inside_traced_stages(tmp_path):
    points = (-0.5, 0.0, 0.0, 0.5)           # the repeated point is one lane
    spec = harness.ExperimentSpec("trace-cfo", "cfo_value", points, TRIALS,
                                  absorbed_baseline=True, per_trial_dump=True,
                                  config_overrides=(("num_users", "2"),
                                                    ("channel_model", "eva-bem")))
    spans = tmp_path / "spans"
    spans.mkdir()
    tracer = tracing.Tracer(str(spans))
    tracer.install()
    try:
        report = harness.run_experiment(spec, SystemConfig(rng_seed=11), out_dir=tmp_path)
    finally:
        tracer.uninstall()
    assert report.n_failed == 0
    stages = tracing.summarize(str(spans))["stages"]
    # one run_trial span per (trial, point), the repeated point included
    assert stages[tracing.TRIAL_SPAN][0] == TRIALS * len(points)
    assert stages["sync.synchronize_user"][0] == 2 * TRIALS * len(points)
    # each lane's stream gets its noise and its filter bank once per draw
    lanes = len(set(points))
    assert stages["channel.add_awgn"][0] == TRIALS * lanes
    assert stages["sync.separate_user"][0] == TRIALS * lanes
    assert stages["sync.timing_correlate"][0] == TRIALS * lanes
    # one search per (trial, user, theta_hat), one absorbed fit and one solve
    # per (trial, user, theta_hat, beta), every point's lane in it
    with open(tmp_path / "trace-cfo" / "per-trial.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    cfg = SystemConfig(channel_model="eva-bem")
    searched = {(rec["trial"], rec["user"], rec["theta_first"]) for rec in records}
    fitted = {(rec["trial"], rec["user"], rec["theta_first"],
               harness.absorbed_beta(cfg, rec["eps_true"])) for rec in records}
    assert stages["sync.estimate_cfo"][0] == len(searched) < TRIALS * 2 * lanes
    assert stages["harness.absorbed_channel_fit"][0] == len(fitted) < TRIALS * 2 * lanes
    assert stages["sync.BemRegressor.coeffs"][0] == len(fitted)
