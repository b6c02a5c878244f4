"""Exception types shared across the package."""


class LefsigError(Exception):
    """Base class for package errors."""


class InputError(LefsigError):
    """Bad caller-supplied data: shapes, malformed documents, non-Lagrangian spans."""


class InternalConsistencyError(LefsigError):
    """A mathematical guarantee failed to hold at runtime.

    Raised when a quantity the theory promises (a symmetric correction form,
    a radical containment, a nonsingular induced form) comes out wrong.
    Indicates a bug, never bad input.
    """


def _require_int(name: str, value: object) -> None:
    if type(value) is not int:  # a bool, a float or a Fraction is no count
        raise InputError(f"{name} must be an integer, got {value!r}")


def _require_size(name: str, value: object) -> None:
    _require_int(name, value)
    if value < 0:
        raise InputError(f"{name} must be nonnegative, got {value}")
