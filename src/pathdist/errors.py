"""Exception types shared across the package, and the integer test behind argument errors."""

import numbers


class PathdistError(Exception):
    """Base class for all package-specific errors."""


class InputError(PathdistError):
    """Invalid argument values (non-finite coordinates, bad tolerances, ...)."""


class ParseError(PathdistError):
    """Malformed input file content; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class StructuralError(PathdistError):
    """Graph structure violations (dangling endpoints, self-loops, bad ids)."""


def is_integer(x, least: int) -> bool:
    """Whether ``x`` is an integer (a bool is not one) of at least ``least``."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= least
