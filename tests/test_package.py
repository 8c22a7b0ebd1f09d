"""Process-wide settings made by importing the package."""

import os
import subprocess
import sys

import pytest

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def thread_env_after_import(preset):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import os, otfsync; "
            f"print(' '.join(os.environ.get(v, '-') for v in {THREAD_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(THREAD_VARS, out.split()))


@pytest.mark.parametrize("preset, expected", [
    ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "3"},
     {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}),
])
def test_import_sets_one_blas_thread_unless_preset(preset, expected):
    assert thread_env_after_import(preset) == expected


def openblas_threads_after_import(preset):
    """Thread count that each OpenBLAS loaded by numpy and scipy reports
    through its own getter after ``import numpy, scipy.linalg, otfsync``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = """
import ctypes, glob, os, sys
import numpy, scipy.linalg, otfsync
for package in ("numpy", "scipy"):
    root = os.path.dirname(os.path.dirname(sys.modules[package].__file__))
    for path in glob.glob(os.path.join(root, package + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                print(package, getter())
                break
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return dict(line.split() for line in out.splitlines())


@pytest.mark.parametrize("preset, expected", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_numpy_imported_first_still_gets_one_blas_thread_unless_preset(preset, expected):
    if not hasattr(os, "RTLD_NOLOAD"):
        pytest.skip("no RTLD_NOLOAD to find the loaded libraries")
    threads = openblas_threads_after_import(preset)
    if not threads:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    assert threads == {package: expected for package in threads}


def test_sync_runs_without_the_channel_module():
    # channel imports sync and never the reverse: the receiver reads the
    # received streams alone, so its front end and back end run with the
    # channel module blocked, on a stream of its own per lane (K = 1) and on
    # one stream of two rows shared by two lanes (K = 2)
    code = """
import sys
sys.modules["otfsync.channel"] = None
import numpy as np
from otfsync import pilot, sync
from otfsync.config import SystemConfig
cfg = SystemConfig(num_users=2).validate()
pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
rng = np.random.default_rng(0)
for shape, stream, amplitude in (((2, 1), [0, 1], [0.0, 0.0]), ((1, 2), [0, 0], [0.0, 0.5])):
    streams = rng.standard_normal(shape + (cfg.n_s,)) + 1j * rng.standard_normal(shape + (cfg.n_s,))
    front = sync.front_end(streams, stream, amplitude, pcp, cfg)
    for user in range(cfg.num_users):
        thetas = front.to_estimate.first_peak[:, user]
        for theta in set(thetas.tolist()):
            lanes = np.flatnonzero(thetas == theta)
            regions, estimates = sync.synchronize_user(front, user, theta, lanes)
            assert regions.shape == (len(lanes), cfg.n, cfg.zc_len)
            assert len(estimates) == len(lanes)
            assert all(np.isfinite(estimate.epsilon_hat) for estimate in estimates)
print("ok")
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "ok\n"


def test_serial_sweeps_and_a_trial_load_only_what_their_trials_use():
    # a one-trial sweep of every benchmark workload at workers=1 and one
    # ``otfsync trial`` leave numpy.ma (np.unique's import), numpy.polynomial
    # (the Chebyshev helpers are in ``sync``) and concurrent.futures (the
    # pool's) unloaded.  Before numpy 2, ``import numpy`` loads the first two
    # itself, so only the pool's import is checked there.
    root = os.path.dirname(SRC)
    code = f"""
import contextlib, io, json, sys
sys.path.insert(0, {os.path.join(root, "perfbench")!r})
from workloads import WORKLOADS
import numpy
from otfsync import cli, harness
from otfsync.config import SystemConfig
with open({os.path.join(root, "BENCHMARK.json")!r}, encoding="utf-8") as fh:
    names = [workload["name"] for workload in json.load(fh)["workloads"]]
for name in names:
    w = WORKLOADS[name]
    spec = harness.ExperimentSpec(name, w.sweep_var, w.sweep_points, 1,
                                  absorbed_baseline=w.absorbed_baseline,
                                  config_overrides=w.config_overrides)
    assert harness.run_experiment(spec, SystemConfig(), workers=1).n_trials
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["trial"])
unused = ["concurrent.futures"]
if int(numpy.__version__.split(".")[0]) >= 2:
    unused += ["numpy.ma", "numpy.polynomial"]
print(" ".join(name for name in unused if name in sys.modules) or "ok")
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "ok\n"
