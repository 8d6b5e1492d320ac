"""Exception types shared across the library, and its count and real-number
checks."""

import math
import numbers


class NoclabError(Exception):
    pass


class SizeMismatch(NoclabError):
    """Operand shapes are incompatible for the requested operation."""


class InvalidValue(NoclabError):
    """A value violates an operation's precondition (range, finiteness, ...)."""


class NoTrace(NoclabError):
    """Backward was requested on a tensor that is not part of a graph."""


class ArchMismatch(NoclabError):
    """Two models do not share the same architecture/parameter structure."""


class InvalidPlan(NoclabError):
    """Samples cannot be dealt into the requested partitions."""


class ConfigError(NoclabError):
    """An experiment config file or override is invalid."""


def is_count(value, least=1):
    """Whether `value` is an integer >= `least` (a bool is no count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def check_counts(**counts):
    """Raise InvalidValue unless each count is an integer >= 1, a seed or
    a pad one >= 0."""
    for name, value in counts.items():
        least = 0 if name in ("seed", "pad") else 1
        if not is_count(value, least):
            raise InvalidValue(f"{name} must be an integer >= {least}, got {value!r}")


def is_real(value):
    """Whether `value` is a finite real number (a bool is none)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def check_positive(**values):
    """Raise InvalidValue unless each value is a finite real number > 0."""
    for name, value in values.items():
        if not (is_real(value) and value > 0):
            raise InvalidValue(f"{name} must be positive and finite, got {value!r}")
