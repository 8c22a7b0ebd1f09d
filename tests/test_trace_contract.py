"""The program's contract with the benchmark's span tracer
(``perfbench/tracing.py``), which wraps functions by name: the batched front
end runs inside traced stages once per draw, one CP removal of its streams
and one ``sync.timing_correlate`` per stream, the points of an SNR sweep read
the draw's unit-noise row at their noise amplitudes and call
``channel.add_awgn`` zero times, and each (trial, point) is one
``run_trial``.  A draw filters each user's pilot region from its own delay
columns, one traced ``sync.separate_user`` and ``sync.extract_pilot_region``
per (user, theta_hat) group of its lanes.  Trials are scored a block at a
time: the first ``run_trial`` of a block scores every trial and point of
it, and runs the back end (``sync.synchronize_user``, one
``sync.estimate_cfo``) once per theta_hat of the block, over every trial,
user and lane that reaches it.  The CFO projections of that search are
traced ``BemRegressor.cost_many`` calls inside it, one per chunk of a few
streams, each stream a (trial, user, theta_hat), and its LS solve is one
traced ``BemRegressor.coeffs`` call; the users share their estimator
bundles, and scoring fetches each theta_hat's bundle once more for its Gram
matrix.  A ``cfo_value`` sweep adds each point's noise to its stream and
correlates that stream in traced stages, lane by lane, and batches its
points' CFO searches and absorbed fits inside the traced ``estimate_cfo``
and ``absorbed_channel_fit``, one of each per theta_hat of the block."""

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
    # the front end runs once per draw, and the points read the unit-noise
    # row at their amplitudes, so no noise is added to any stream
    assert stages["modem.remove_cp"][0] == TRIALS
    assert stages["sync.timing_correlate"][0] == TRIALS
    assert "channel.add_awgn" not in stages
    # the two trials are one block: one search per theta_hat of it, whichever
    # trials and users reach it
    assert TRIALS <= harness.BLOCK_TRIALS
    with open(tmp_path / "trace" / "per-trial.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    streams = {(rec["trial"], rec["user"], rec["theta_first"]) for rec in records}
    thetas = {rec["theta_first"] for rec in records}
    assert len(thetas) < len(streams)
    # each (trial, user, theta_hat) filters its region's columns once, for
    # both points
    assert stages["sync.separate_user"][0] == len(streams)
    assert stages["sync.extract_pilot_region"][0] == len(streams)
    # per_layer_metrics divides by the back-end call count: one per theta_hat
    # of the block, each one search
    assert stages["sync.synchronize_user"][0] == len(thetas) > 0
    assert stages["sync.estimate_cfo"][0] == len(thetas)
    # sync.cfo_coarse.ms reads the projections inside the CFO searches, one
    # call per chunk of the theta_hat's streams (K = 2 rows each)
    chunks = 0
    for theta in thetas:
        lags = len(sync.estimator_bundle(SystemConfig(), theta).scan_index)
        chunk = max(1, sync.SEARCH_CHUNK_BYTES // (16 * 4 * lags * 2 * lags))
        chunks += -(-sum(key[2] == theta for key in streams) // chunk)
    assert stages["sync.BemRegressor.cost_many"][0] == chunks
    assert summary["in_cfo"]["sync.BemRegressor.cost_many"] > 0
    # and the LS solve of every lane at once, which sync.cfo_solve.ms reads
    assert stages["sync.BemRegressor.coeffs"][0] == len(thetas)
    assert summary["in_cfo"]["sync.BemRegressor.coeffs"] > 0
    assert "sync.reconstruct_channel" not in stages
    # two bundle fetches per theta_hat: the search's and its Gram matrix for
    # the closed-form score; a draw makes its truth projections on the bases
    assert stages["sync.estimator_bundle"][0] == 2 * len(thetas)
    # one bundle per distinct theta_hat, whichever users it came from
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
    # each lane's stream gets its noise and its filtered correlation once
    # per draw
    lanes = len(set(points))
    assert stages["channel.add_awgn"][0] == TRIALS * lanes
    assert stages["sync.timing_correlate"][0] == TRIALS * lanes
    # and each (trial, user, theta_hat) filters its region's columns once, of
    # the streams of every lane that reaches it
    with open(tmp_path / "trace-cfo" / "per-trial.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    groups = {(rec["trial"], rec["user"], rec["theta_first"]) for rec in records}
    assert stages["sync.separate_user"][0] == len(groups) < TRIALS * 2 * lanes
    # one search and one absorbed fit per theta_hat of the block, every
    # trial's, user's and point's lane in it, and two solves: the search's
    # and the absorbed fit's
    thetas = {rec["theta_first"] for rec in records}
    assert stages["sync.estimate_cfo"][0] == len(thetas) < TRIALS * 2 * lanes
    assert stages["sync.synchronize_user"][0] == len(thetas) > 0
    assert stages["harness.absorbed_channel_fit"][0] == len(thetas)
    assert stages["sync.BemRegressor.coeffs"][0] == 2 * len(thetas)
