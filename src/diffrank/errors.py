"""Exception taxonomy shared across the package.

Each class carries the process exit code the CLI returns for it in
`exit_code` (subclasses inherit their parent's), so library code should
raise the most specific class that applies.
"""

import numbers


class DiffrankError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class ConfigError(DiffrankError):
    """Bad run configuration: unknown key, wrong type, invalid value."""

    exit_code = 2


def require_integers(config, names) -> None:
    """Raise ConfigError unless each named field of a frozen dataclass is an
    integer (bools excluded); store each as a plain int."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(config, name, int(value))


class DataError(DiffrankError):
    """Problem with input data files or caches."""

    exit_code = 3


class ParseError(DataError):
    """Malformed line in a ranking data file. Carries file and line number."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)


class ValidationError(DataError):
    """Parsed value violates the data contract (e.g. label out of range)."""


class CacheCorruptionError(DataError):
    """Binary cache is truncated or internally inconsistent."""


class IncompatibilityError(DiffrankError):
    """Versioned artifact does not match what the reader expects."""

    exit_code = 3


class ShapeError(DiffrankError):
    """Tensor operands have incompatible shapes."""


class DomainError(DiffrankError):
    """Math op applied outside its domain (log of a non-positive value)."""


class NumericError(DiffrankError):
    """Non-finite value where training or inference cannot continue."""

    exit_code = 4
