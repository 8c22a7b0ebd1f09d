"""The program's contract with the benchmark's span tracer
(``perfbench/tracing.py``), which wraps functions by name: the batched front
end runs inside traced stages, and the per-user back end runs once per user."""

import os
import sys

from otfsync import harness
from otfsync.config import SystemConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)
import tracing  # noqa: E402

USERS, TRIALS = 4, 2


def test_q4_eva_sweep_is_covered_by_traced_stages(tmp_path):
    spec = harness.ExperimentSpec("trace", "snr_db", (20.0,), TRIALS,
                                  config_overrides=(("num_users", str(USERS)),))
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install()
    try:
        report = harness.run_experiment(spec, SystemConfig(rng_seed=11))
    finally:
        tracer.uninstall()
    assert report.n_failed == 0
    stages = tracing.summarize(str(tmp_path))["stages"]
    calls, inclusive, own = stages[tracing.TRIAL_SPAN]
    assert calls == TRIALS
    # trace.coverage of perfbench/run.py: the share of run_trial in traced children
    assert 1.0 - own / inclusive >= 0.9
    # per_layer_metrics divides by the per-user call counts
    assert stages["sync.synchronize_user"][0] == USERS * TRIALS
    assert stages["sync.separate_user"][0] == TRIALS
    assert stages["sync.timing_correlate"][0] == TRIALS
