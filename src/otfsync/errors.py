"""Exception types shared across the package."""


class OtfsyncError(Exception):
    """Base class for all package errors."""


class ConfigError(OtfsyncError):
    """Invalid system configuration or config file."""


class PlacementError(OtfsyncError):
    """A user's data occupies the shared pilot delay span (``pilot.embed_pilots``)."""


class RealizationError(OtfsyncError):
    """Channel realization violates the quasi-synchronous bounds."""


class EstimationError(OtfsyncError):
    """An estimator could not produce a result (rank loss, empty input)."""


class NumericError(OtfsyncError):
    """A linear solve failed; usually fixable with diagonal loading."""
