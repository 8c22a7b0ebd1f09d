"""Multiuser OTFS uplink synchronization and channel estimation.

Library layout:

- ``config``      system dimensioning and experiment parameters
- ``allocation``  per-user delay-Doppler resource allocation
- ``modem``       OTFS transmit chain and inverse receive transforms
- ``pilot``       cyclic-prefixed Zadoff-Chu pilots in a shared delay region
- ``channel``     doubly-selective channels, sample-level application
- ``sync``        filter bank, timing metric, ML CFO + BEM channel estimation
- ``harness``     Monte Carlo experiments and CSV reports
- ``cli``         command-line front end (``otfsync``)
"""

import os

# One BLAS thread per process, set before any submodule imports numpy: every
# operand is at most 320 x 201, where threading costs more than it saves, and
# trial parallelism comes from the process pool, whose forked or spawned
# workers inherit this setting.  A value the user has already set wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .config import SystemConfig, load_config, apply_overrides
from .errors import (OtfsyncError, ConfigError, AllocationError, PlacementError,
                     RealizationError, EstimationError, NumericError)

__all__ = [
    "SystemConfig", "load_config", "apply_overrides",
    "OtfsyncError", "ConfigError", "AllocationError", "PlacementError",
    "RealizationError", "EstimationError", "NumericError",
]

__version__ = "0.1.0"
