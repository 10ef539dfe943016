"""Exception types shared across the package."""


class StepAuditError(Exception):
    """Base class for package errors."""


class InvalidParameterError(StepAuditError, ValueError):
    """An argument violates a documented precondition."""


class ConstructionError(StepAuditError, ValueError):
    """An instance or schedule could not be built."""


class NumericFaultError(StepAuditError, ArithmeticError):
    """A non-finite value appeared mid-run; the message names the step."""
