"""Exceptions shared by all modules."""


class ValidationError(Exception):
    """A mathematical invariant failed (bad input or an internal bug)."""


class BudgetError(Exception):
    """A computation would exceed the configured memory budget."""


class SpecError(Exception):
    """A specification file could not be parsed or has the wrong shape."""


class OrderBoundError(SpecError, ValidationError):
    """A group order above the supported bound: an input error to the command
    line, and a ValidationError like any other refused group to the library."""
