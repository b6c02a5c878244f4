"""The fraction-free kernels against their Fraction oracles.

`ratlinalg._int_rref` runs Gauss-Jordan on ints with content removal and
`signature_symmetric` a Bareiss congruence; `oracles.fraction_rref` and
`oracles.fraction_signature_symmetric` are the Fraction eliminations they
replaced.  Every solve, kernel, reduced row, rank and signature must agree
exactly.
"""

import random
from fractions import Fraction

from lefsig import ratlinalg
from lefsig.ratlinalg import (
    Matrix,
    _divide,
    _int_solve,
    clear_denominators,
    signature_symmetric,
    vec_dot,
)
from lefsig.symplectic import SymplecticSpace, VanishingCycle, _gram, prefix_sweep

from .fixtures import block_sum, random_lagrangian
from .oracles import (
    fraction_rref,
    fraction_signature_symmetric,
    fraction_solve,
    kernel_basis,
    signature_via_charpoly,
)

BIG = 10**30


def _entry(rng: random.Random, kind: str):
    if rng.random() < 0.45:
        return 0
    if kind == "int":
        return rng.choice((1, -1, 2, -3, 6, 7))
    if kind == "frac":
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12)))
    return rng.choice((1, -1)) * (BIG + rng.randint(-50, 50))  # "big"


def _dependent(rng: random.Random, rows: list[list], cols: int) -> list[list]:
    """The rows plus a few rational combinations of them, spread among them."""
    rows = [list(r) for r in rows]
    for _ in range(rng.randint(0, 2) if rows else 0):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in rows]
        combo = [sum((c * r[j] for c, r in zip(coeffs, rows)), 0) for j in range(cols)]
        rows.insert(rng.randint(0, len(rows)), combo)
    return rows


def _random_matrix(rng: random.Random) -> Matrix:
    n, m = rng.randint(0, 6), rng.randint(0, 6)
    kind = rng.choice(("int", "frac", "big"))
    rows = _dependent(rng, [[_entry(rng, kind) for _ in range(m)] for _ in range(n)], m)
    return Matrix(rows, m)


def _step_matrices(rng: random.Random) -> list[Matrix]:
    """Id - Phi_k of a word on a few handles of a genus-4 fiber: block diagonal
    up to the order of the handles, with zero blocks on the untouched ones."""
    space = SymplecticSpace(4)
    handles = rng.sample(range(4), rng.randint(1, 2))
    cycles = []
    for _ in range(rng.randint(2, 7)):
        g = [0] * 8
        for h in handles:
            g[2 * h], g[2 * h + 1] = rng.randint(-2, 2), rng.randint(-2, 2)
        cycles.append(VanishingCycle(tuple(g), rng.choice((1, -1))))
    return [Matrix([[int(i == j) - x for j, x in enumerate(row)]
                    for i, row in enumerate(phi.entries)], 8)
            for phi, _ in list(prefix_sweep(space, cycles))[1:]]


def _rhs(rng: random.Random, a: Matrix) -> list:
    """A random b, and one in the column space of A so some solves succeed."""
    free = [_entry(rng, "frac") for _ in range(a.rows)]
    x = [rng.randint(-3, 3) for _ in range(a.cols)]
    return [free, [vec_dot(row, x) for row in a.entries]]


def _assert_rref_matches(rows: list[list]) -> None:
    """`_int_rref` of the rows, each with its denominators cleared, holds the
    RREF's pivots, each RREF row up to a scale, and its zero pattern."""
    got, pivots = ratlinalg._int_rref([clear_denominators(r)[1] for r in rows])
    want, want_pivots = fraction_rref(rows)
    assert pivots == want_pivots
    assert [[Fraction(x, row[c]) for x in row] for row, c in zip(got, pivots)] \
        == want[:len(pivots)]
    assert [[x != 0 for x in r] for r in got] == [[x != 0 for x in r] for r in want]


def test_integer_kernel_matches_fraction_oracle():
    rng = random.Random(1968)
    cases = [Matrix.zeros(0, 0), Matrix.zeros(0, 3), Matrix.zeros(3, 0), Matrix.zeros(2, 2)]
    cases += [_random_matrix(rng) for _ in range(300)]
    for _ in range(6):
        cases += _step_matrices(rng)
    for a in cases:
        rhs = _rhs(rng, a)
        # the step's solve runs on each row of [A | b] with its denominators
        # cleared, which leaves the solution as it is
        for b in rhs:
            system = [list(row) + [y] for row, y in zip(a.entries, b)]
            solved = _int_solve([clear_denominators(row)[1] for row in system], a.cols)
            want = fraction_solve(system, a.cols)
            assert (None if solved is None else tuple(_divide(solved[1], solved[0]))) == want, a
        # the int reader of Meyer's kernel: the RREF kernel with each vector's
        # denominators cleared
        rows = [clear_denominators(row)[1] for row in a.entries]
        assert ratlinalg._int_kernel(rows, a.cols) == \
            [clear_denominators(v)[1] for v in kernel_basis(a)], a
        aug = [list(row) + [b[i] for b in rhs] for i, row in enumerate(a.entries)]
        _assert_rref_matches(aug)
        limit = rng.randint(0, a.cols)  # a leading block of columns
        _assert_rref_matches([row[:limit] for row in aug])
        _assert_rref_matches(a.entries)


def _random_symmetric(rng: random.Random, n: int) -> Matrix:
    kind = rng.choice(("int", "frac", "big"))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = _entry(rng, kind)
    if rng.random() < 0.6:
        for i in range(n):
            m[i][i] = 0
    if rng.random() < 0.2:  # negative definite: every pivot is negative
        a = Matrix([[_entry(rng, "int") or 1 for _ in range(n)] for _ in range(n)], n)
        return Matrix.zeros(n, n) - (a.transpose() @ a + Matrix.identity(n))
    return Matrix(m, n)


# each needs a manufactured pivot after one or more eliminations
MANUFACTURED = [
    [[1, 1, 0], [1, 1, 1], [0, 1, 0]],
    [[-2, 2, 2], [2, -2, 3], [2, 3, -2]],
    [[1, 1, 1, 0], [1, 1, 1, 2], [1, 1, 1, -1], [0, 2, -1, 0]],
    [[3, 0, 3, 3], [0, 0, 1, 0], [3, 1, 3, 3], [3, 0, 3, 0]],
    [[-1, 0, 0], [0, 0, Fraction(1, 2)], [0, Fraction(1, 2), 0]],
    [[Fraction(-1, 3), 1, 0], [1, -3, 1], [0, 1, 0]],
]


def _kashiwara_form(rng: random.Random, genus: int) -> Matrix:
    """Kashiwara's form of a random Lagrangian triple: zero diagonal blocks,
    so many rows hold 0 in the pivot column."""
    space = SymplecticSpace(genus)
    a, b, c = (random_lagrangian(rng, space).basis for _ in range(3))
    p, s, r = _gram(a, b), _gram(b, c), _gram(c, a)
    zero = ((0,) * genus,) * genus
    blocks = ((zero, p, tuple(zip(*r))), (tuple(zip(*p)), zero, s), (r, tuple(zip(*s)), zero))
    return Matrix([x + y + z for row in blocks for x, y, z in zip(*row)], 3 * genus)


def _zero_column_cases(rng: random.Random) -> list[Matrix]:
    """Symmetric matrices whose rows hold 0 in a pivot column both where the
    pivot p differs from the previous one and where p = prev: block sums,
    diagonal matrices and Kashiwara forms."""
    cases = [Matrix([[2, 0, 0], [0, 1, 0], [0, 0, 3]], 3),  # pivots 2, 2, 6
             Matrix([[1, 0, 1], [0, 1, 0], [1, 0, -1]], 3)]  # pivots 1, 1, -2
    for _ in range(40):
        left = _random_symmetric(rng, rng.randint(1, 4))
        right = _random_symmetric(rng, rng.randint(1, 4))
        cases.append(block_sum(left, right))
        diag = [rng.choice((1, 1, -1, 2, -2, 3)) for _ in range(rng.randint(1, 5))]
        cases.append(Matrix([[x if i == j else 0 for j in range(len(diag))]
                             for i, x in enumerate(diag)], len(diag)))
    cases += [block_sum(Matrix(rows, len(rows)), Matrix(rows, len(rows))) for rows in MANUFACTURED]
    cases += [_kashiwara_form(rng, rng.randint(1, 3)) for _ in range(30)]
    return cases


def test_bareiss_congruence_matches_oracles():
    rng = random.Random(1968)
    cases = [Matrix(rows, len(rows)) for rows in MANUFACTURED]
    cases += [_random_symmetric(rng, rng.randint(0, 8)) for _ in range(300)]
    cases += _zero_column_cases(rng)
    for s in cases:
        sig = signature_via_charpoly(s)
        negated = Matrix.zeros(s.rows, s.cols) - s
        scaled = Matrix([[Fraction(-5, 3) * x for x in row] for row in s.entries], s.cols)
        for t, want in ((s, sig), (negated, -sig), (scaled, -sig)):
            assert signature_symmetric(t) == fraction_signature_symmetric(t) == want, t
