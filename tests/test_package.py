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
