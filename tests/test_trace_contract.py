"""The program's contract with the benchmark's span tracer
(``perfbench/tracing.py``), which wraps functions by name: the batched front
end runs inside traced stages, the per-user back end runs once per user, each
user's CFO search is one traced projection, and the users share their
estimator bundles."""

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

USERS, TRIALS = 4, 2


def test_q4_eva_sweep_is_covered_by_traced_stages(tmp_path):
    spec = harness.ExperimentSpec("trace", "snr_db", (20.0,), TRIALS,
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
    stages = tracing.summarize(str(spans))["stages"]
    calls, inclusive, own = stages[tracing.TRIAL_SPAN]
    assert calls == TRIALS
    # trace.coverage of perfbench/run.py: the share of run_trial in traced children
    assert 1.0 - own / inclusive >= 0.9
    # per_layer_metrics divides by the per-user call counts
    assert stages["sync.synchronize_user"][0] == USERS * TRIALS
    assert stages["sync.separate_user"][0] == TRIALS
    assert stages["sync.timing_correlate"][0] == TRIALS
    # sync.cfo_coarse.ms reads the one projection of each user's CFO search
    assert stages["sync.BemRegressor.cost_many"][0] == USERS * TRIALS
    # one bundle per distinct theta_hat, whichever users it came from
    with open(tmp_path / "trace" / "per-trial.jsonl", encoding="utf-8") as fh:
        thetas = {json.loads(line)["theta_first"] for line in fh}
    assert 1 <= stages["sync.build_bem_regressor"][0] <= len(thetas)
    assert stages["sync.estimator_bundle"][0] == USERS * TRIALS
