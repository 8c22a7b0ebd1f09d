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

from .config import SystemConfig, load_config, apply_overrides
from .errors import (OtfsyncError, ConfigError, AllocationError, PlacementError,
                     RealizationError, EstimationError, NumericError)

__all__ = [
    "SystemConfig", "load_config", "apply_overrides",
    "OtfsyncError", "ConfigError", "AllocationError", "PlacementError",
    "RealizationError", "EstimationError", "NumericError",
]

__version__ = "0.1.0"
