"""Exception types shared across the package."""


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
