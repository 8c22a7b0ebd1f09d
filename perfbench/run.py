"""The otfsync benchmark command.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; every measurement runs the
checkout's ``src/otfsync`` in a fresh process (``sweep.py``).  A run first
checks correctness and computes the estimator-quality guards, then repeats
rounds until ``--seconds`` have passed.  With ``--trace 0`` a round is a
set-up probe plus one timed sweep and the run reports the end-to-end
metrics; with ``--trace 1`` a round is one untraced and one traced sweep and
the run reports the per-layer metrics, the trace coverage and the tracing
overhead.  The last stdout line is one JSON object; the full record,
manifest included, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
from workloads import SEED_SLOTS, WORKLOADS, rng_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src", "otfsync")
OUT_DIR = os.path.join(HERE, "out")
#: fewest rounds a run makes, however short --seconds is
MIN_ROUNDS = 3
#: a run ends within this many seconds, children included
RUN_LIMIT_S = 170.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")

#: name -> (unit, better); the metrics of BENCHMARK.json
END_TO_END = {
    "trials_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "cfo_mse": ("bin2", "lower"),
    "ch_nmse": ("ratio", "lower"),
    "to_mae": ("samples", "lower"),
}
#: stage metrics: name -> span whose inclusive time per trial it reports
STAGE_MS = {
    "sync.estimate_cfo.ms": "sync.estimate_cfo",
    "sync.golden_section_max.ms": "sync.golden_section_max",
    "sync.build_bem_regressor.ms": "sync.build_bem_regressor",
    "channel.apply_channel.ms": "channel.apply_channel",
    "channel.draw_realization.ms": "channel.draw_realization",
    "channel.add_awgn.ms": "channel.add_awgn",
    "sync.separate_user.ms": "sync.separate_user",
    "sync.timing_correlate.ms": "sync.timing_correlate",
    "sync.estimate_to.ms": "sync.estimate_to",
    "sync.extract_pilot_region.ms": "sync.extract_pilot_region",
    "modem.build_data_frame.ms": "modem.build_data_frame",
    "modem.transmit.ms": "modem.transmit",
    "pilot.embed_pilots.ms": "pilot.embed_pilots",
    "harness.true_pilot_taps.ms": "harness.true_pilot_taps",
}
PER_LAYER = {
    **{name: ("ms", "lower") for name in STAGE_MS},
    "sync.cfo_coarse.ms": ("ms", "lower"),
    "sync.cfo_solve.ms": ("ms", "lower"),
    "sync.cfo_cost.calls_per_user": ("count", "lower"),
    "sync.estimator_bundle.calls": ("count", "lower"),
    "sync.build_bem_regressor.calls": ("count", "lower"),
    "sync.bundle_hit_rate": ("ratio", "higher"),
    "harness.run_trial.ms.p50": ("ms", "lower"),
    "harness.run_trial.ms.p90": ("ms", "lower"),
    "harness.run_point.ms": ("ms", "lower"),
    "harness.pool_busy_frac": ("ratio", "higher"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}
#: printed and recorded, but not in BENCHMARK.json: failed_frac and the
#: absorbed fit read exactly 0 on some workload, ch_nmse_db is near 0 or
#: negative, and the traced run's own throughputs only give trace.overhead
REPORT_ONLY = {
    "failed_frac": "ratio",
    "ch_nmse_db": "dB",
    "harness.absorbed_channel_fit.ms": "ms",
    "trace.trials_per_s": "1/s",
    "trace.untraced_trials_per_s": "1/s",
}


class BenchError(Exception):
    """A measurement could not be made."""


def run_child(mode: str, workload: str, seed: int, workers: int, deadline: float,
              trace_dir: str | None = None) -> dict:
    """Run sweep.py in a fresh process; returns its JSON plus ``t_spawn``."""
    cmd = [sys.executable, os.path.join(HERE, "sweep.py"), mode, "--workload", workload,
           "--rng-seed", str(seed), "--workers", str(workers)]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=ROOT, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} of {workload} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} of {workload} exited {proc.returncode}:\n{err[-4000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result.update(t_spawn=t_spawn, rng_seed=seed)
    return result


def end_to_end_metrics(setups, sweeps, guards) -> dict:
    """Medians over the rounds of a run, plus the reference-seed guards."""
    return {
        "trials_per_s": statistics.median(s["trials"] / s["wall_s"] for s in sweeps),
        "setup_s": statistics.median(s["t_done"] - s["t_spawn"] for s in setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sweeps),
        "cfo_mse": guards["cfo_mse"],
        "ch_nmse": guards["ch_nmse"],
        "to_mae": guards["to_mae"],
    }


def per_layer_metrics(summaries, n_sweeps: int, workers: int,
                      untraced_tps: float, traced_tps: float) -> dict:
    """Per-layer metrics from the merged spans of ``n_sweeps`` traced sweeps.

    Times are inclusive milliseconds per trial; call counts are per sweep.
    """
    stages, in_cfo, trial_s, point_s = {}, {}, [], []
    for summary in summaries:
        for name, (calls, incl, own) in summary["stages"].items():
            acc = stages.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += own
        for name, incl in summary["in_cfo"].items():
            in_cfo[name] = in_cfo.get(name, 0.0) + incl
        trial_s += summary["trial_s"]
        point_s += summary["point_s"]
    trials = len(trial_s)

    def calls(name):
        return stages.get(name, (0, 0.0, 0.0))[0]

    def ms_per_trial(name):
        return 1e3 * stages.get(name, (0, 0.0, 0.0))[1] / trials

    def ms_in_cfo(*names):
        return 1e3 * sum(in_cfo.get(name, 0.0) for name in names) / trials

    metrics = {m: ms_per_trial(span) for m, span in STAGE_MS.items()}
    bundle_calls = calls("sync.estimator_bundle")
    builds = calls("sync.build_bem_regressor")
    deciles = statistics.quantiles(trial_s, n=10)
    run_trial = stages[tracing.TRIAL_SPAN]
    metrics.update({
        "sync.cfo_coarse.ms": ms_in_cfo("sync.BemRegressor.cost_many"),
        "sync.cfo_solve.ms": ms_in_cfo("sync.BemRegressor.coeffs", "sync.reconstruct_channel"),
        "sync.cfo_cost.calls_per_user": calls("sync.cfo_cost") / calls("sync.synchronize_user"),
        "sync.estimator_bundle.calls": bundle_calls / n_sweeps,
        "sync.build_bem_regressor.calls": builds / n_sweeps,
        "sync.bundle_hit_rate": 1.0 - builds / bundle_calls,
        "harness.run_trial.ms.p50": 1e3 * deciles[4],
        "harness.run_trial.ms.p90": 1e3 * deciles[8],
        "harness.run_point.ms": 1e3 * statistics.fmean(point_s),
        "harness.pool_busy_frac": sum(trial_s) / (workers * sum(point_s)),
        "trace.coverage": 1.0 - run_trial[2] / run_trial[1],
        "trace.overhead": untraced_tps / traced_tps - 1.0,
        "harness.absorbed_channel_fit.ms": ms_per_trial("harness.absorbed_channel_fit"),
        "trace.trials_per_s": traced_tps,
        "trace.untraced_trials_per_s": untraced_tps,
    })
    return metrics


def source_digest() -> str:
    """sha256 over the package sources, which identifies the program in a
    checkout that is not a git repository."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SOURCE):
        dirnames.sort()
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, SOURCE).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def manifest(args, workload, workers: int, versions: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        **versions,
        "nproc": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "workload": dataclasses.asdict(workload),
    }


def measure(args) -> dict:
    """One benchmark run; returns the record written to ``perfbench/out``."""
    workload = WORKLOADS[args.workload]
    workers = min(workload.workers, os.cpu_count() or 1)
    deadline = time.perf_counter() + RUN_LIMIT_S
    seeds = [rng_seed(workload.name, args.seed, slot) for slot in range(SEED_SLOTS)]

    check = run_child("check", workload.name, seeds[0], workers, deadline)
    problems = list(check["problems"])
    setups, sweeps, traced, summaries = [], [], [], []
    end = time.perf_counter() + args.seconds
    while len(sweeps) < MIN_ROUNDS or time.perf_counter() < end:
        seed = seeds[len(sweeps) % SEED_SLOTS]
        if args.trace:
            trace_dir = tempfile.mkdtemp(prefix="trace-", dir=OUT_DIR)
            try:
                traced.append(run_child("sweep", workload.name, seed, workers, deadline,
                                        trace_dir=trace_dir))
                summaries.append(tracing.summarize(trace_dir))
            finally:
                shutil.rmtree(trace_dir)
            if len(summaries[-1]["trial_s"]) != traced[-1]["trials"]:
                problems.append(f"traced sweep recorded {len(summaries[-1]['trial_s'])} "
                                f"of {traced[-1]['trials']} trials")
        else:
            setups.append(run_child("setup", workload.name, seed, workers, deadline))
        sweeps.append(run_child("sweep", workload.name, seed, workers, deadline))

    all_sweeps = sweeps + traced
    digests = {}
    for sweep in all_sweeps:
        if sweep["records"] != workload.records:
            problems.append(f"sweep returned {sweep['records']} records, "
                            f"expected {workload.records}")
        digests.setdefault(sweep["rng_seed"], set()).add(sweep["csv_sha256"])
    for seed, found in digests.items():
        if len(found) > 1:
            problems.append(f"rng_seed {seed}: results.csv differs between repeats")
    attempted = check["records"] + sum(s["records"] for s in all_sweeps)
    failed = check["failed"] + sum(s["failed"] for s in all_sweeps)
    record = {
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "manifest": manifest(args, workload, workers, check["versions"]),
        "guards": check["guards"],
        "rounds": len(sweeps),
        "setups": setups,
        "sweeps": sweeps,
    }
    if args.trace:
        untraced_tps = statistics.median(s["trials"] / s["wall_s"] for s in sweeps)
        traced_tps = statistics.median(s["trials"] / s["wall_s"] for s in traced)
        record["traced_sweeps"] = traced
        record["metrics"] = per_layer_metrics(summaries, len(traced), workers,
                                              untraced_tps, traced_tps)
    else:
        record["metrics"] = end_to_end_metrics(setups, sweeps, check["guards"])
        record["metrics"]["failed_frac"] = failed / attempted
        record["metrics"]["ch_nmse_db"] = check["guards"]["ch_nmse_db"]
    return record


def report_lines(record: dict, listed: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, then the manifest."""
    m = record["manifest"]
    lines = [f"otfsync benchmark: workload={m['workload']['name']} seed={m['seed']} "
             f"trace={m['trace']} rounds={record['rounds']} workers={m['workers']} "
             f"correct={record['correct']}"]
    lines += [f"  problem: {p}" for p in record["problems"]]
    units = {name: unit for name, (unit, _) in listed.items()}
    units.update(REPORT_ONLY)
    for name, value in record["metrics"].items():
        lines.append(f"  {name:34s} {value:14.6g} {units[name]}")
    if not record["manifest"]["trace"]:
        tps = [s["trials"] / s["wall_s"] for s in record["sweeps"]]
        setup = [s["t_done"] - s["t_spawn"] for s in record["setups"]]
        for name, values in (("trials_per_s", tps), ("setup_s", setup)):
            q1, q2, q3 = statistics.quantiles(values, n=4)
            lines.append(f"  {name} over {len(values)} rounds: q1 {q1:.6g} "
                         f"median {q2:.6g} q3 {q3:.6g}")
    lines.append("manifest " + json.dumps(m, sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="otfsync benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SOURCE, "__init__.py")):
        print(f"no program to measure: {SOURCE} is missing", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        record = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    listed = PER_LAYER if args.trace else END_TO_END
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("\n".join(report_lines(record, listed)))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, (unit, _) in listed.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
