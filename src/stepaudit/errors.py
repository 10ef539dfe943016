"""Exception types shared across the package, and :func:`step_count`, the one
rule for every public step count: a horizon, step index, length or snapshot time."""

import numbers


class StepAuditError(Exception):
    """Base class for package errors."""


class InvalidParameterError(StepAuditError, ValueError):
    """An argument violates a documented precondition."""


class ConstructionError(StepAuditError, ValueError):
    """An instance or schedule could not be built."""


class NumericFaultError(StepAuditError, ArithmeticError):
    """A non-finite value appeared mid-run; the message names the step."""


def step_count(value, least, what: str) -> int:
    """``value`` as an ``int``, if it is an integer (numpy's too, not a ``bool``)
    of at least ``least``; otherwise :class:`InvalidParameterError` names it as
    ``what`` (``horizon 8.5 is not an integer``, ``horizon 0 is below 1``), so
    ``8.5`` is refused, never cut to 8."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{what} {value!r} is not an integer")
    if value < least:
        raise InvalidParameterError(f"{what} {int(value)} is below {least}")
    return int(value)
