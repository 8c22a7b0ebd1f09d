"""Tests of the benchmark itself (tracer, metric names, seeds, set-up probe)."""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest
from otfsync import harness as otfsync_harness

import run
import tracing
from workloads import WORKLOADS, rng_seed

TINY = "cfo-q2-evabem-absorbed"


def _originals():
    found = {}
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"otfsync.{module_name}")
        for qualname in names:
            owner = module
            for part in qualname.split("."):
                owner = getattr(owner, part)
            found[(module_name, qualname)] = owner
    return found


def _traced_sweep(tmp_path, seed: int, workers: int = 1):
    """A two-trial, one-point sweep of TINY under the tracer."""
    w = WORKLOADS[TINY]
    spec = otfsync_harness.ExperimentSpec(
        name="tiny", sweep_var=w.sweep_var, sweep_points=w.sweep_points[-1:], trials=2,
        absorbed_baseline=True, config_overrides=w.config_overrides)
    from otfsync.config import SystemConfig
    out = tmp_path / f"trace-{seed}-{workers}"
    out.mkdir()
    tracer = tracing.Tracer(str(out))
    tracer.install()
    try:
        report = otfsync_harness.run_experiment(spec, SystemConfig(rng_seed=seed),
                                                workers=workers)
    finally:
        tracer.uninstall()
    return report, tracing.summarize(str(out))


def test_wrappers_restore_the_original_functions(tmp_path):
    before = _originals()
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install()
    try:
        during = _originals()
        assert all(during[key] is not before[key] for key in before)
        with pytest.raises(RuntimeError):
            tracing.Tracer(str(tmp_path)).install()
    finally:
        tracer.uninstall()
    assert _originals() == before
    assert all(_originals()[key] is before[key] for key in before)


def test_spans_of_forked_workers_reach_the_parent(tmp_path):
    report, summary = _traced_sweep(tmp_path, seed=7, workers=2)
    assert len(summary["trial_s"]) == 2
    assert summary["stages"]["harness.run_point"][0] == 1
    files = os.listdir(tmp_path / "trace-7-2")
    assert len({name.split("-")[1] for name in files}) >= 2   # parent and a worker
    assert report.n_trials == 2 * 2


def test_metric_names_match_benchmark_json(tmp_path):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[section]}
        assert listed == table

    guards = {"cfo_mse": 0.1, "ch_nmse": 0.2, "to_mae": 0.3}
    setups = [{"t_spawn": 1.0, "t_done": 1.5}]
    sweeps = [{"trials": 10, "wall_s": 2.0, "peak_rss_mb": 100.0}]
    assert set(run.end_to_end_metrics(setups, sweeps, guards)) == set(run.END_TO_END)
    _, summary = _traced_sweep(tmp_path, seed=1)
    per_layer = run.per_layer_metrics([summary], 1, 1, 10.0, 9.0)
    assert set(run.PER_LAYER) <= set(per_layer)
    assert set(per_layer) - set(run.PER_LAYER) <= set(run.REPORT_ONLY)
    assert 0.9 < per_layer["trace.coverage"] <= 1.0


def test_seed_changes_inputs_but_not_metric_names(tmp_path):
    assert rng_seed(TINY, 1, 0) != rng_seed(TINY, 2, 0)
    assert rng_seed(TINY, 1, 0) == rng_seed(TINY, 1, 0)
    report_a, summary_a = _traced_sweep(tmp_path, seed=rng_seed(TINY, 1, 0))
    report_b, summary_b = _traced_sweep(tmp_path, seed=rng_seed(TINY, 2, 0))
    assert report_a.to_csv_text() != report_b.to_csv_text()
    names_a = run.per_layer_metrics([summary_a], 1, 1, 10.0, 9.0).keys()
    names_b = run.per_layer_metrics([summary_b], 1, 1, 10.0, 9.0).keys()
    assert list(names_a) == list(names_b)


def test_setup_is_measured_in_a_fresh_process():
    result = run.run_child("setup", TINY, rng_seed(TINY, 1, 0), 1,
                           deadline=time.perf_counter() + 120)
    assert result["pid"] != os.getpid()
    assert result["fresh"]
    assert result["t_done"] > result["t_spawn"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    os.mkdir(tmp_path / "perfbench")
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(run.HERE, name), tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", TINY,
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
