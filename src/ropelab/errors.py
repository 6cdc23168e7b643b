"""Exception types shared across the package, and the one rule for integer inputs."""

import numbers


class RopelabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RopelabError, ValueError):
    """A vector length, angle count, or head dimension is invalid."""


class ParameterError(RopelabError, ValueError):
    """A numeric parameter is outside its valid range."""


class CoordinateError(RopelabError, ValueError):
    """A token coordinate or frame index lies outside its grid."""


class ConfigError(RopelabError, ValueError):
    """A scheme configuration is internally inconsistent."""


class LayoutParseError(RopelabError, ValueError):
    """A layout spec string could not be parsed.

    ``span`` holds the (start, end) character range of the offending item
    in the original string.
    """

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        super().__init__(message)
        self.span = span


def check_integer(value, what: str, error: type[RopelabError] = ParameterError, low: int | None = None) -> int:
    """``value`` as a Python int; ``error`` unless a non-bool ``Integral`` (numpy's pass), >= ``low`` if given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise error(f"{what} must be >= {low}, got {value}")
    return value
