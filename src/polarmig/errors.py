"""Exception types shared across the package."""


class PolarmigError(Exception):
    """Base class for all package errors."""


class DegenerateGeometryError(PolarmigError, ValueError):
    """A geometric configuration (collinear triangle, flat array) is degenerate."""


class CoincidentPointsError(DegenerateGeometryError):
    """Two points that must be distinct are numerically coincident."""


class NumericalError(PolarmigError, RuntimeError):
    """A numerical operation failed (singular matrix, conditioning blow-up)."""


class ConfigError(PolarmigError, ValueError):
    """An experiment configuration is invalid."""


class DatasetFormatError(PolarmigError, ValueError):
    """An on-disk container is malformed or truncated."""
