"""Multiuser OTFS uplink synchronization and channel estimation.

Library layout:

- ``config``      system dimensioning and experiment parameters
- ``modem``       OTFS transmit chain and cyclic-prefix removal
- ``pilot``       cyclic-prefixed Zadoff-Chu pilots in a shared delay region
- ``channel``     doubly-selective channels, sample-level application
- ``sync``        filter bank, timing metric, ML CFO + BEM channel estimation
- ``harness``     Monte Carlo experiments and CSV reports
- ``cli``         command-line front end (``otfsync``)
"""

import os
import sys


def _one_thread_in_loaded_openblas() -> None:
    """Set one thread in each OpenBLAS that numpy or scipy has already loaded.

    OpenBLAS reads OPENBLAS_NUM_THREADS once, when it loads, so the variable
    alone misses a library loaded before this package was imported.  A
    library not loaded yet is left alone: it reads the variable when it loads.
    """
    import ctypes
    import glob

    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return
    for package in ("numpy", "scipy"):
        module = sys.modules.get(package)
        if module is None:
            continue
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)),
                            package + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            try:
                lib = ctypes.CDLL(path, mode=noload | os.RTLD_LAZY)
            except OSError:
                continue
            for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                         "openblas_set_num_threads64_", "openblas_set_num_threads"):
                setter = getattr(lib, name, None)
                if setter is not None:
                    setter.argtypes = [ctypes.c_int]
                    setter.restype = None
                    setter(1)
                    break


def _fixed_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at the cap of its dynamic rule.

    glibc raises its mmap threshold to the size of each freed mmap'd block,
    up to 32 MB, and sets the trim threshold to twice that.  With the
    arrays of a trial (up to a few MB), the threshold it settles at can sit
    just below the free space at the heap top, so the heap is trimmed and
    faulted back in on every trial: about 340 minor page faults per warm
    Q=2 eva-bem trial with the absorbed baseline, against none with fixed
    thresholds.  Blocks up to 32 MB then come from the heap, which keeps
    up to 64 MB free at its top.  A no-op outside glibc.
    """
    import ctypes

    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


# One BLAS thread per process, set before any submodule imports numpy: every
# operand is at most 320 x 201, where threading costs more than it saves, and
# trial parallelism comes from the process pool, whose forked or spawned
# workers inherit this setting.  A value the user has already set wins.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    _one_thread_in_loaded_openblas()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

# Fixed thresholds are set at import, so that pool workers inherit them.
# glibc's own settings from the environment win.
if not any(var.startswith("MALLOC_") or var == "GLIBC_TUNABLES" for var in os.environ):
    _fixed_malloc_thresholds()

# numpy >= 2 loads these submodules on first use.  The first trial of each
# process needs them (numpy.ma through the np.unique of its estimator bundle
# builds and ``channel.eva_profile``), so they load with the package, about
# 25 ms, instead of inside that trial.
import numpy.fft  # noqa: E402,F401
import numpy.ma  # noqa: E402,F401
import numpy.random  # noqa: E402,F401

from .config import SystemConfig, load_config, apply_overrides
from .errors import (OtfsyncError, ConfigError, PlacementError, RealizationError,
                     EstimationError)

__all__ = [
    "SystemConfig", "load_config", "apply_overrides",
    "OtfsyncError", "ConfigError", "PlacementError", "RealizationError",
    "EstimationError",
]

__version__ = "0.1.0"
