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


def is_real(value):
    """Whether `value` is a finite real number (a bool is none)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))
