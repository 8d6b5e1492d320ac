"""Exception types shared across the library, and its count check."""

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


def is_count(value):
    """Whether `value` is an integer >= 1 (a bool is no count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1
