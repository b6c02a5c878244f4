"""Exact dense linear algebra over the rationals.

Entries are ints or Fractions, never floats or bools, so solves, kernels and
signatures are exact and a sign is never lost to rounding.  Matrices are
immutable tuples of tuples.  `Matrix(...)` checks every entry; the results
of its own arithmetic are not checked again, because ints and Fractions are
closed under +, - and *.  `_product`, for `Matrix @` and the cover ladder,
sums each entry of all-int operands in C, `sum(map(mul, row, col))`, and
otherwise uses `vec_dot`, which skips zero terms.  Both eliminations are
fraction-free: they clear denominators, run on Python ints and bring in a
Fraction only when a result is read out.  A deterministic first-nonzero pivot
rule keeps every witness reproducible.  Dimensions reach the fiber ceiling of 1000.

Every elimination is one forward pass, `_int_echelon`, read two ways:
`_int_solve` (the engine's step) back-substitutes x = n / D over one positive
denominator D, and `_int_rref` clears each pivot column upwards for
`_int_kernel` (Meyer's form), which scales each kernel vector by a positive
lcm, and the `Lagrangian` constructor, which divides each pivot row by its
content.  A quotient read out is an int exactly when it is integral.  A
solve is inconsistent exactly when b's column takes a pivot.  The congruence
in `signature_symmetric` updates only the live trailing block.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from ._record import _Record, _setattr
from .errors import InputError, _require_range, _show

Rational = int | Fraction  # the entry type: never a float or a bool
Scalar = Rational | str
Vector = tuple[Rational, ...]
_EXACT = {int, Fraction}  # the types of Rational, which Matrix checks per row


def as_rational(x: Scalar) -> Rational:
    """Exact rational of an int (kept an int), a Fraction, or a string like '3/4'.

    Floats are rejected on purpose: admitting one would silently poison
    every exactness guarantee downstream.  Bools are rejected too, as
    `Matrix(...)` and `errors._require_int` reject them.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
            shown = repr(x) if not 0 < limit < len(x) else (
                f"{len(x)} characters, past the int-to-str digit limit of {limit}")
            raise InputError(f"not a rational literal: {shown}") from exc
    raise InputError(f"not an exact rational: {x!r}")


def _as_tuple(v: Iterable) -> tuple:
    """tuple(v) of a caller's vector or container of vectors; a str or a
    non-iterable is refused."""
    if isinstance(v, str) or not hasattr(type(v), "__iter__"):
        raise InputError(f"expected a vector, got {_show(v)}")
    return tuple(v)


def as_vector(entries: Iterable[Scalar]) -> Vector:
    v = _as_tuple(entries)
    return v if _EXACT.issuperset(map(type, v)) else tuple(as_rational(x) for x in v)


def vec_dot(u: Vector, v: Vector) -> Rational:
    # skipping zero terms matters: forms and echelon bases are mostly zeros
    total = 0
    for a, b in zip(u, v, strict=True):
        if a and b:
            total += a * b
    return total


class Matrix(_Record):
    """Immutable rational matrix.  `cols` is explicit so 0-row shapes survive.

    Entries must be ints or Fractions; `from_rows` also takes 'p/q' strings.
    Rows are stored as tuples, so equal matrices compare and hash equal."""

    _fields = ("entries", "cols")

    def __init__(self, entries: Sequence[Sequence[Rational]], cols: int) -> None:
        _require_range("cols", cols, 0)
        entries = tuple(map(_as_tuple, _as_tuple(entries)))
        for row in entries:
            if len(row) != cols:
                raise InputError(
                    f"ragged matrix: row of length {len(row)}, expected {_show(cols)}"
                )
            if not _EXACT.issuperset(map(type, row)):
                raise InputError("matrix entries must be ints or Fractions; use Matrix.from_rows")
        _setattr(self, "entries", entries)
        _setattr(self, "cols", cols)

    @classmethod
    def _exact(cls, entries: tuple[tuple[Rational, ...], ...], cols: int) -> "Matrix":
        """A Matrix of tuple rows of length `cols` whose entries are already
        known to be ints or Fractions, built without the checks: for results
        of exact arithmetic on checked matrices, which cannot hold a float."""
        m = object.__new__(cls)
        _setattr(m, "entries", entries)
        _setattr(m, "cols", cols)
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> "Matrix":
        data = tuple(map(as_vector, _as_tuple(rows)))
        if cols is None:
            if not data:
                raise InputError("cannot infer column count of an empty matrix")
            cols = len(data[0])
        return Matrix(data, cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        _require_range("n", n, 0, sys.maxsize)
        return Matrix._exact(tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)), n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        _require_range("rows", rows, 0, sys.maxsize)
        _require_range("cols", cols, 0, sys.maxsize)
        return Matrix._exact(((0,) * cols,) * rows, cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def at(self, i: int, j: int) -> Rational:
        return self.entries[i][j]

    def transpose(self) -> "Matrix":
        return Matrix._exact(tuple(zip(*self.entries)) if self.entries else ((),) * self.cols,
                             self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix._exact(
            tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.entries, other.entries)),
            self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return Matrix._exact(
            tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.entries, other.entries)),
            self.cols,
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return Matrix._exact(_product(self.entries, other.transpose().entries), other.cols)

    def _require_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise InputError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def _product(rows: Sequence[Vector], columns: Sequence[Vector]) -> tuple[Vector, ...]:
    """Rows of A B from A's rows and B's columns; an int 0 times a Fraction stays an int."""
    if {int}.issuperset(map(type, chain(*rows, *columns))):
        return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in rows)
    return tuple(tuple(vec_dot(row, col) for col in columns) for row in rows)


def clear_denominators(v: Sequence[Rational]) -> tuple[int, list[int]]:
    """(delta, delta * v) with delta > 0 the lcm of the denominators of v."""
    if {int}.issuperset(map(type, v)):  # the common case
        return 1, list(v)
    delta = lcm(*(x.denominator for x in v))
    return delta, [x.numerator * (delta // x.denominator) for x in v]


def _divide(n: Sequence[int], d: int) -> list[Rational]:
    """n / d entrywise, each an int exactly when it is integral."""
    if d == 1:
        return list(n)
    return [x // d if not x % d else Fraction(x, d) for x in n]


def _eliminate(row: list[int], top: Sequence[int], p: int, f: int) -> list[int]:
    """(p/g)*row - (f/g)*top, g = gcd(p, f), divided by its content: for the
    pivot p of `top` and the entry f of `row` in the pivot column."""
    g = gcd(p, f)
    a, b = p // g, f // g
    row = [a * x - b * y if y else a * x for x, y in zip(row, top)]
    content = gcd(*row)
    return [x // content for x in row] if content > 1 else row


def _int_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Row echelon form of int rows by fraction-free elimination, in place.

    Each row below the first-nonzero pivot p in column c is `_eliminate`d
    from column c on: to its left it is zero.  These rows are those that
    Gauss-Jordan holds at that stage, so the pivot columns are the RREF's.
    Every column may host a pivot, a solve's right-hand side too: it takes
    one exactly when the solve is inconsistent."""
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0]) if nrows else 0):
        if r == nrows:
            break
        for i in range(r, nrows):  # a plain loop: no generator per column
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        p, top, zeros = rows[r][c], rows[r][c + 1:], [0] * (c + 1)
        for i in range(r + 1, nrows):
            if f := rows[i][c]:
                rows[i] = zeros + _eliminate(rows[i][c + 1:], top, p, f)
        pivots.append(c)
        r += 1
    return rows, pivots


def _int_rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of int rows, in place, up to a scale per row:
    `_int_echelon`, then each pivot column, bottom pivot first, `_eliminate`d
    from the rows above.  Its readers, `_int_kernel` and `Lagrangian`, read
    only what a row scale keeps."""
    rows, pivots = _int_echelon(rows)
    for k in range(len(pivots) - 1, 0, -1):
        bottom, c = rows[k], pivots[k]
        for i in range(k):
            if f := rows[i][c]:
                rows[i] = _eliminate(rows[i], bottom, bottom[c], f)
    return rows, pivots


def _int_solve(rows: list[list[int]], cols: int) -> tuple[int, list[int]] | None:
    """(D, n) with D > 0 and x = n / D the solution, free variables zero, of
    the int rows [A | b] (`cols` columns in A), reduced in place by
    `_int_echelon`; None when b's column takes a pivot.  Back-substitution,
    bottom pivot first: pivot row r gives x_c = t / (D p) with
    t = b_r D - sum_j a_rj n_j; for t / p = t' / q in lowest terms, q > 0,
    D becomes D q, the numerators found so far are scaled by q and n_c = t'."""
    reduced, pivots = _int_echelon(rows)
    if pivots and pivots[-1] == cols:
        return None
    d, n = 1, [0] * cols
    for r in range(len(pivots) - 1, -1, -1):
        row, c = reduced[r], pivots[r]
        if t := row[cols] * d - sum(map(mul, row[c + 1:cols], n[c + 1:])):
            p = row[c]
            g = gcd(t, p) if p > 0 else -gcd(t, p)
            t, q = t // g, p // g
            if q != 1:
                d *= q
                n[c + 1:] = [x * q for x in n[c + 1:]]
            n[c] = t
    return d, n


def _int_kernel(rows: list[list[int]], cols: int) -> list[list[int]]:
    """Kernel of the int rows, reduced in place, as int rows, one per free
    column f: the RREF kernel vector (1 at f, -a_rf / p_r at each pivot
    column) times L > 0, the lcm of |p_r| / gcd(p_r, a_rf) over the pivot
    rows, which is that vector's denominators cleared."""
    reduced, pivots = _int_rref(rows)
    kernel = []
    for f in sorted(set(range(cols)) - set(pivots)):
        scale = lcm(*(abs(row[c]) // gcd(row[c], row[f]) for row, c in zip(reduced, pivots)))
        v = [0] * cols
        v[f] = scale
        for row, c in zip(reduced, pivots):
            v[c] = -(row[f] * scale // row[c])
        kernel.append(v)
    return kernel


def _swap_sym(m: list[list[Rational]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]


def signature_symmetric(s: Matrix) -> int:
    """Signature of a symmetric rational matrix via congruence diagonalization.

    Symmetry is read off the rows, `entries == zip(*entries)`; all-int rows are
    copied, others scaled by the positive lcm of the denominators, to run on ints.
    Symmetric steps E M E^T keep it symmetric; a vanishing trailing diagonal gets
    a manufactured pivot (2*m[i][j]) from a symmetric row+column addition.  A step
    updates only the live trailing block, by Bareiss' rule (p*m[r][c] -
    m[r][k]*m[k][c]) // prev, which keeps it prev times the Schur complement; swaps
    and manufactured pivots are unimodular, so the divisions stay exact.  Each
    row's entry f = m[r][k] is read once: a row with f = 0 is only rescaled,
    p*m[r][c] // prev, the same Bareiss minor and so as exact, and is left as it
    is when p = prev.  The k-th diagonal pivot is p/prev: +1 when p and prev
    share a sign, else -1.
    """
    if not s.is_square():
        raise InputError("signature of a non-square matrix")
    rows, n = s.entries, s.rows
    if rows != tuple(zip(*rows)):
        raise InputError("signature of a non-symmetric matrix")
    if {int}.issuperset(map(type, chain(*rows))):
        m = list(map(list, rows))
    else:
        flat = clear_denominators(list(chain(*rows)))[1]
        m = [flat[i * n:(i + 1) * n] for i in range(n)]
    sig, prev = 0, 1
    for k in range(n):
        if m[k][k] == 0:
            i = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if i is not None:
                _swap_sym(m, k, i)
            else:
                pos = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if m[i][j]),
                           None)
                if pos is None:
                    break  # trailing block is identically zero
                i, j = pos
                for c in range(k, n):
                    m[i][c] += m[j][c]
                for r in range(k, n):
                    m[r][i] += m[r][j]
                if i != k:
                    _swap_sym(m, k, i)
        p = m[k][k]
        sig += 1 if (p > 0) == (prev > 0) else -1
        top = m[k][k + 1:]
        for row in m[k + 1:]:
            if f := row[k]:
                row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], top)]
            elif p != prev:
                row[k + 1:] = [p * x // prev for x in row[k + 1:]]
        prev = p
    return sig


def sign(x: Rational) -> int:
    return (x > 0) - (x < 0)
