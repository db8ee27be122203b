"""Exception hierarchy shared across the package, and the check that a
count or seed setting is an integer of at least a given size."""

import numbers


class GeocensError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GeocensError):
    """Invalid covariance family, smoothness value, or option combination."""


class DataValidationError(GeocensError):
    """Malformed dataset, file schema, or mismatched geometry."""


class ModelSpecificationError(GeocensError):
    """Trend matrix is rank deficient or otherwise unusable."""


class SingularCovarianceError(GeocensError):
    """A covariance matrix failed its Cholesky factorization."""


class UnsupportedMethodError(GeocensError):
    """The requested algorithm does not support this censoring type."""


class NumericalError(GeocensError):
    """An optimizer or iterative routine produced non-finite values."""


class DegenerateCurvatureError(GeocensError):
    """All curvature eigenvalues fell below the rank threshold."""


def check_count(name: str, value, least: int = 1) -> None:
    """Raise :class:`ConfigurationError`, naming the setting ``name``,
    unless ``value`` is an integer (not a ``bool``) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")
