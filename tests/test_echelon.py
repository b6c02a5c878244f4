"""The split elimination kernel against the Fraction Gauss-Jordan oracle.

`ratlinalg._int_echelon` is the one forward pass.  Its pivot columns must be
those of the reduced row echelon form over Q (`oracles.fraction_rref`), and
`_int_rref` (the forward pass plus an upward pass) must hold each RREF row up
to a nonzero scale.  `_int_solve` back-substitutes the solution with every
free variable zero as (D, n), x = n / D with D > 0, and reports None exactly
when the right-hand side is inconsistent.  The systems have zero rows,
dependent rows, inconsistent right-hand sides, entries near 10^30, and 0-row
and 0-column shapes.

Every quotient the library reads out is an int exactly when it is integral:
`_divide` of the solve's (D, n) and the engine's witnesses follow one type
rule, whatever the pivots were.
"""

import random
from fractions import Fraction

from lefsig import Surface, signature, word
from lefsig.ratlinalg import _divide, _int_echelon, _int_rref, _int_solve

from .oracles import fraction_rref, fraction_solve

BIG = 10**30


def _entry(rng: random.Random, big: bool) -> int:
    if rng.random() < 0.4:
        return 0
    x = rng.choice((1, -1, 2, -2, 3, -6, 7, 12))
    return x * (BIG + rng.randint(-9, 9)) if big else x


def _system(rng: random.Random) -> tuple[list[list[int]], int]:
    """Int rows [A | b]: A random with zero and dependent rows, b either
    random (often inconsistent) or A times an int vector (consistent)."""
    nrows, cols = rng.randint(0, 7), rng.randint(0, 7)
    big = rng.random() < 0.25
    a = [[_entry(rng, big) for _ in range(cols)] for _ in range(nrows)]
    for _ in range(rng.randint(0, 2) if a else 0):
        i, j = rng.randrange(len(a)), rng.randrange(len(a))
        s, t = rng.randint(-3, 3), rng.choice((1, -2, 5))
        a.insert(rng.randint(0, len(a)), [s * x + t * y for x, y in zip(a[i], a[j])])
    if a and rng.random() < 0.3:
        a.insert(rng.randint(0, len(a)), [0] * cols)
    if rng.random() < 0.5:
        b = [_entry(rng, big) for _ in a]
    else:
        v = [rng.randint(-3, 3) for _ in range(cols)]
        b = [sum(x * y for x, y in zip(row, v)) for row in a]
    return [row + [y] for row, y in zip(a, b)], cols


def test_forward_pass_and_back_substitution_match_fraction_rref():
    rng = random.Random(1829)  # Jacobi's year for the bilinear-form reduction
    cases = [([], 0), ([], 3), ([[0], [0]], 0), ([[5], [0]], 0), ([[0, 0, 0]] * 2, 2)]
    cases += [_system(rng) for _ in range(600)]
    seen = {"inconsistent": 0, "consistent": 0, "fractional": 0, "big": 0, "free": 0}
    for rows, cols in cases:
        oracle_rows, want_pivots = fraction_rref(rows)
        want = fraction_solve(rows, cols)
        assert _int_echelon([list(r) for r in rows])[1] == want_pivots, rows
        reduced, pivots = _int_rref([list(r) for r in rows])
        assert pivots == want_pivots
        for r, c in enumerate(pivots):  # each pivot row is a scaled RREF row
            assert [Fraction(x, reduced[r][c]) for x in reduced[r]] == oracle_rows[r], rows
        solved = _int_solve([list(r) for r in rows], cols)
        if want is None:
            assert solved is None, rows
            seen["inconsistent"] += 1
            continue
        d, n = solved
        assert type(d) is int and d > 0 and len(n) == cols
        assert tuple(Fraction(x, d) for x in n) == want, rows
        seen["consistent"] += 1
        seen["fractional"] += any(x.denominator > 1 for x in want)
        seen["big"] += any(abs(x) > BIG for row in rows for x in row)
        seen["free"] += len(pivots) < cols
    assert min(seen.values()) >= 20, seen


def _canonical(xs) -> bool:
    """An int exactly where the value is integral, a Fraction elsewhere."""
    return all(type(x) is (int if Fraction(x).denominator == 1 else Fraction) for x in xs)


def test_read_out_quotients_are_ints_exactly_when_integral():
    rng = random.Random(1830)
    integral_fraction_pivot = 0
    for _ in range(400):
        rows, cols = _system(rng)
        solved = _int_solve([list(r) for r in rows], cols)
        want = fraction_solve(rows, cols)
        if solved is None:
            assert want is None
            continue
        got = _divide(solved[1], solved[0])
        assert tuple(got) == want
        assert _canonical(got)
        # an integral entry behind a non-unit pivot: once a Fraction(2, 1)
        reduced, pivots = _int_echelon([list(r) for r in rows])
        integral_fraction_pivot += any(
            abs(reduced[r][c]) > 1 and type(got[c]) is int and got[c]
            for r, c in enumerate(pivots))
    assert integral_fraction_pivot >= 10
    for seed in range(40):
        rng = random.Random(seed)
        genus = rng.randint(1, 4)
        vectors = [[rng.randint(-3, 3) for _ in range(2 * genus)] for _ in range(8)]
        for step in signature(word(Surface(genus, 0), vectors)).steps:
            assert step.witness is None or _canonical(step.witness)
