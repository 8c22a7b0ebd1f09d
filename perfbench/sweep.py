"""One measurement of the otfsync benchmark, in a fresh process.

    python3 perfbench/sweep.py {setup,sweep,check} --workload W --rng-seed N
                               --workers K [--trace-dir DIR]

``setup`` runs one trial at the first sweep point and reports the clock when
it returned, so that the caller can time spawn -> first completed trial.
``sweep`` times one whole ``run_experiment`` of the workload.  ``check`` runs
the correctness checks and the estimator-quality guards and reports the
versions for the run manifest.  The last stdout line is one JSON object.
The caller puts the repository's ``src`` first on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time

from workloads import REFERENCE_SEED, WORKLOADS, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: trials of the noiseless identity-channel timing check
IDENTITY_TRIALS = 6
#: sweep points, trials and pool size of the workers=1 vs pool results.csv
#: check; 16 trials make two chunks of harness.run_point, one per worker
SLICE_POINTS, SLICE_TRIALS, POOL_WORKERS = 2, 16, 2


def _import_harness():
    from otfsync import harness
    source = os.path.join(ROOT, "src", "otfsync")
    if os.path.dirname(os.path.abspath(harness.__file__)) != source:
        raise SystemExit(f"otfsync imported from {harness.__file__}, not from {source}")
    return harness


def _spec(harness, w: Workload, points=None, trials=None):
    return harness.ExperimentSpec(
        name=w.name, sweep_var=w.sweep_var,
        sweep_points=tuple(points or w.sweep_points), trials=trials or w.trials,
        absorbed_baseline=w.absorbed_baseline, config_overrides=w.config_overrides)


def _config(rng_seed: int):
    from otfsync.config import SystemConfig
    return SystemConfig(rng_seed=rng_seed)


def _mean(report, variant: str, metric: str) -> float:
    values = [r.value for r in report.rows if r.variant == variant and r.metric == metric]
    return math.fsum(values) / len(values)


def _peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus, for a pool, workers x the largest reaped
    worker's peak: an upper bound on the tree's peak, as RSS counts shared
    pages in every process that maps them."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * children if workers > 1 else 0)) / 1024.0


def run_setup(w: Workload, rng_seed: int, workers: int) -> dict:
    fresh = "otfsync" not in sys.modules
    harness = _import_harness()
    harness.run_experiment(_spec(harness, w, points=w.sweep_points[:1], trials=1),
                           _config(rng_seed), workers=workers)
    return {"t_done": time.perf_counter(), "pid": os.getpid(), "fresh": fresh}


def run_sweep(w: Workload, rng_seed: int, workers: int, trace_dir: str | None) -> dict:
    harness = _import_harness()
    tracer = None
    if trace_dir:
        import tracing
        tracer = tracing.Tracer(trace_dir)
        tracer.install()
    spec, cfg = _spec(harness, w), _config(rng_seed)
    start = time.perf_counter()
    report = harness.run_experiment(spec, cfg, workers=workers)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return {
        "wall_s": wall,
        "trials": w.trials * len(w.sweep_points),
        "records": report.n_trials,
        "failed": report.n_failed,
        "csv_sha256": hashlib.sha256(report.to_csv_text().encode()).hexdigest(),
        "peak_rss_mb": _peak_rss_mb(workers),
    }


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_check(w: Workload, rng_seed: int) -> dict:
    harness = _import_harness()
    from otfsync.config import apply_overrides
    problems = []

    # noiseless identity channel: first-peak timing is exact for every user
    cfg = apply_overrides(_config(rng_seed), {
        "num_users": str(w.num_users), "channel_model": "identity", "snr_db": "inf"})
    misses = 0
    for k in range(IDENTITY_TRIALS):
        records, _ = harness.run_trial(cfg, k)
        misses += sum(r.failed or r.theta_first != r.theta_true for r in records)
    if misses:
        problems.append(f"identity channel: {misses} users with theta_first != theta_true")

    # a pool changes nothing in the results
    pool = min(POOL_WORKERS, os.cpu_count() or 1)
    if pool > 1:
        spec = _spec(harness, w, points=w.sweep_points[:SLICE_POINTS], trials=SLICE_TRIALS)
        serial = harness.run_experiment(spec, _config(rng_seed), workers=1).to_csv_text()
        pooled = harness.run_experiment(spec, _config(rng_seed), workers=pool).to_csv_text()
        if serial != pooled:
            problems.append(f"results.csv differs between workers=1 and workers={pool}")

    # estimator-quality guards at the fixed reference seed
    report = harness.run_experiment(_spec(harness, w), _config(REFERENCE_SEED), workers=1)
    if report.n_trials != w.records:
        problems.append(f"reference sweep: {report.n_trials} records, expected {w.records}")
    guards = {
        "cfo_mse": _mean(report, "compensated", "cfo_mse"),
        "ch_nmse": _mean(report, "compensated", "ch_nmse"),
        "ch_nmse_db": _mean(report, "compensated", "ch_nmse_db"),
        "to_mae": _mean(report, "first-peak", "to_mean_abs_err"),
    }
    if not all(math.isfinite(v) for v in guards.values()):
        problems.append(f"non-finite estimator-quality guard: {guards}")
    return {"problems": problems, "guards": guards, "records": report.n_trials,
            "failed": report.n_failed, "versions": _versions()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "sweep", "check"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--rng-seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.mode == "setup":
        out = run_setup(w, args.rng_seed, args.workers)
    elif args.mode == "sweep":
        out = run_sweep(w, args.rng_seed, args.workers, args.trace_dir)
    else:
        out = run_check(w, args.rng_seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
