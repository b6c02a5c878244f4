"""Exception types shared across the package, and its one rule for counts.

Every count, index and size a caller passes (a genus, a step k, a fold n, a
matrix shape) goes through `_require_range`.  The int rule, `_require_int`,
comes first: the type is exactly `int`, so a bool, a float or a Fraction
raises `{name} must be an integer, got {value!r}`.  Then the range rule,
`low <= value`, and `value <= high` when a bound is given, raises
`{name} {value} out of range {low}..{high}` when bounded and
`{name} must be >= {low}, got {value}` otherwise.  Every refused value is
shown through `_show`, which names a value too large for CPython's
int-to-str digit limit by its type (and an int by its bit length).
"""


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
        raise InputError(f"{name} must be an integer, got {_show(value)}")


def _require_range(name: str, value: object, low: int, high: int | None = None) -> None:
    _require_int(name, value)
    if high is None:
        if value < low:
            raise InputError(f"{name} must be >= {low}, got {_show(value)}")
    elif not low <= value <= high:
        raise InputError(f"{name} {_show(value)} out of range {low}..{high}")


def _show(value: object) -> str:
    """repr(value), which is str(value) for an int, or its type (and an int's
    size) when printing it passes CPython's int-to-str digit limit (4300 by
    default), so a refusal never escapes as that limit's `ValueError`."""
    try:
        return repr(value)
    except ValueError:
        if type(value) is int:
            return f"<{value.bit_length()}-bit integer>"
        return f"<{type(value).__name__} past the digit limit>"
