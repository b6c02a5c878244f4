"""Exact linear algebra: solves, kernels, signatures, products, subspaces."""

import random
import sys
from fractions import Fraction
from functools import reduce
from operator import matmul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefsig.errors import InputError
from lefsig.ratlinalg import (
    Matrix,
    _divide,
    _int_echelon,
    _int_kernel,
    _int_solve,
    as_rational,
    clear_denominators,
    signature_symmetric,
    vec_dot,
)
from lefsig.symplectic import SymplecticSpace, VanishingCycle, prefix_sweep

from .fixtures import block_sum
from .oracles import (
    fraction_rref,
    kernel_basis,
    reference_matmul,
    signature_via_charpoly,
    span_basis,
)


def test_as_rational_accepts_ints_strings_fractions():
    assert as_rational(3) == 3 and type(as_rational(3)) is int
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational(Fraction(-2, 6)) == Fraction(-1, 3)


def test_as_rational_rejects_floats_and_garbage():
    with pytest.raises(InputError):
        as_rational(0.5)
    with pytest.raises(InputError):
        as_rational("1.5.2")


def test_bools_are_no_rationals():
    for x in (True, False):
        with pytest.raises(InputError, match="not an exact rational"):
            as_rational(x)
    with pytest.raises(InputError):
        Matrix.from_rows([[True, 0], [0, 1]], 2)


def _system(a: Matrix, b) -> list[list[int]]:
    """The int rows [A | b]."""
    return [list(row) + [y] for row, y in zip(a.entries, b)]


def test_solve_unique():
    # the rows [A | b] of diag(2, 3) x = (4, 9)
    assert _int_solve([[2, 0, 4], [0, 3, 9]], 2) == (1, [2, 3])
    assert _int_kernel([[2, 0], [0, 3]], 2) == []


def test_solve_inconsistent():
    assert _int_solve([[1, 1, 1], [1, 1, 2]], 2) is None


def test_solve_affine_deterministic_witness():
    # free variable set to zero, pivot solved: the witness is reproducible
    assert _int_solve([[0, -1, 1], [0, 0, 0]], 2) == (1, [0, -1])
    assert _int_kernel([[0, -1], [0, 0]], 2) == [[1, 0]]


def test_solve_no_rows():
    assert _int_solve([], 3) == (1, [0, 0, 0])
    assert _int_kernel([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@st.composite
def matrices_and_solutions(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    entries = st.integers(-4, 4)
    a = Matrix.from_rows(
        [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    )
    x = [draw(entries) for _ in range(cols)]
    return a, x


@given(matrices_and_solutions())
@settings(max_examples=60, deadline=None)
def test_solve_roundtrip(case):
    a, x = case
    b = [vec_dot(row, x) for row in a.entries]
    solved = _int_solve(_system(a, b), a.cols)
    assert solved is not None
    d, n = solved  # x = n / d
    assert [vec_dot(row, n) for row in a.entries] == [d * y for y in b]
    kernel = _int_kernel([list(row) for row in a.entries], a.cols)
    for v in kernel:
        assert [vec_dot(row, v) for row in a.entries] == [0] * a.rows
    # kernel dimension + rank = number of columns
    assert len(kernel) + len(fraction_rref(a.entries)[1]) == a.cols


@given(matrices_and_solutions())
@settings(max_examples=40, deadline=None)
def test_inconsistent_really_means_it(case):
    a, x = case
    b = [vec_dot(row, x) for row in a.entries]
    b[0] += 1  # may or may not stay consistent; trust only the reported outcome
    solved = _int_solve(_system(a, b), a.cols)
    if solved is None:
        # b must then be outside the column span: appending it raises the rank
        assert len(fraction_rref(_system(a, b))[1]) > len(fraction_rref(a.entries)[1])
    else:
        d, n = solved
        assert [vec_dot(row, n) for row in a.entries] == [d * y for y in b]


def test_signature_examples():
    assert signature_symmetric(Matrix.from_rows([[1, 0], [0, -1]])) == 0
    assert signature_symmetric(Matrix.from_rows([[0, 1], [1, 0]])) == 0
    assert signature_symmetric(Matrix.zeros(3, 3)) == 0
    assert signature_symmetric(Matrix.from_rows([[2]])) == 1
    assert (
        signature_symmetric(
            Matrix.from_rows([[2, 0, 1, 1], [0, 2, 0, -1], [1, 0, 2, 1], [1, -1, 1, 2]])
        )
        == 4
    )


@pytest.mark.parametrize("rows", [
    # each needs a manufactured pivot after one or more eliminations; in the
    # first, the trailing block after one step is [[0, 1], [1, 0]]
    [[1, 1, 0], [1, 1, 1], [0, 1, 0]],
    [[-2, 2, 2], [2, -2, 3], [2, 3, -2]],
    [[1, 1, 1, 0], [1, 1, 1, 2], [1, 1, 1, -1], [0, 2, -1, 0]],
    [[3, 0, 3, 3], [0, 0, 1, 0], [3, 1, 3, 3], [3, 0, 3, 0]],
    [[1, 2, 0, 0, 1], [2, 4, 1, 0, 2], [0, 1, 0, 1, 0], [0, 0, 1, 0, 5], [1, 2, 0, 5, 1]],
])
def test_signature_manufactured_pivot_after_elimination(rows):
    s = Matrix.from_rows(rows)
    assert signature_symmetric(s) == signature_via_charpoly(s)
    assert signature_symmetric(Matrix.zeros(s.rows, s.cols) - s) == -signature_via_charpoly(s)


def test_signature_rejects_non_symmetric():
    with pytest.raises(InputError):
        signature_symmetric(Matrix.from_rows([[0, 1], [0, 0]]))


def test_signature_empty_matrix():
    assert signature_symmetric(Matrix.zeros(0, 0)) == 0


def symmetric_matrices(max_n=6, spread=5):
    def build(draw):
        n = draw(st.integers(1, max_n))
        vals = st.integers(-spread, spread)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = Fraction(draw(vals))
        return Matrix.from_rows(m)

    return st.composite(build)()


@given(symmetric_matrices())
@settings(max_examples=80, deadline=None)
def test_signature_matches_charpoly_oracle(s):
    # the strategy draws Fraction entries; the all-int copy takes the int front
    as_ints = Matrix([[int(x) for x in row] for row in s.entries], s.cols)
    assert signature_symmetric(s) == signature_symmetric(as_ints) == signature_via_charpoly(s)


@given(symmetric_matrices(max_n=4, spread=3), st.data())
@settings(max_examples=50, deadline=None)
def test_signature_congruence_invariant(s, data):
    n = s.rows
    # random invertible P as a product of two triangular matrices with unit diagonal
    vals = st.integers(-2, 2)
    lower = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    upper = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(data.draw(vals))
            upper[j][i] = Fraction(data.draw(vals))
    p = Matrix.from_rows(lower) @ Matrix.from_rows(upper)
    assert signature_symmetric(p.transpose() @ s @ p) == signature_symmetric(s)


@given(symmetric_matrices(max_n=4), symmetric_matrices(max_n=4))
@settings(max_examples=40, deadline=None)
def test_signature_additive_on_blocks(s, t):
    assert signature_symmetric(block_sum(s, t)) == signature_symmetric(
        s
    ) + signature_symmetric(t)


@given(symmetric_matrices())
@settings(max_examples=40, deadline=None)
def test_signature_negation_flips(s):
    assert signature_symmetric(Matrix.zeros(s.rows, s.cols) - s) == -signature_symmetric(s)


def test_matrix_requires_exact_entries():
    for rows in (((2, 0), (0, 2)),
                 ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))),
                 ((Fraction(1, 2), 3), (0, Fraction(-4, 3)))):
        assert Matrix(rows, 2) == Matrix.from_rows(rows)
    for bad in (0.5, 2.0, True, False, "1", None):
        with pytest.raises(InputError, match="Matrix.from_rows"):
            Matrix(((Fraction(1, 2), bad),), 2)
        with pytest.raises(InputError, match="Matrix.from_rows"):
            Matrix(((1, 2), (bad, 3)), 2)
    d, n = _int_solve(_system(Matrix(((2, 0), (0, 2)), 2), [1, 1]), 2)
    assert _divide(n, d) == [Fraction(1, 2), Fraction(1, 2)]
    # a shape is a nonnegative int, and the message names the field
    for build, message in ((lambda: Matrix.identity(-1), f"n -1 out of range 0..{sys.maxsize}"),
                           (lambda: Matrix((), -3), "cols must be >= 0, got -3"),
                           (lambda: Matrix.zeros(2, -1), f"cols -1 out of range 0..{sys.maxsize}"),
                           (lambda: Matrix.zeros(-1, 2), f"rows -1 out of range 0..{sys.maxsize}"),
                           (lambda: Matrix.identity(1.0), "n must be an integer, got 1.0"),
                           (lambda: Matrix.zeros(2.0, 2), "rows must be an integer, got 2.0"),
                           (lambda: Matrix.zeros(2, True), "cols must be an integer, got True"),
                           (lambda: Matrix((), 2.0), "cols must be an integer, got 2.0")):
        with pytest.raises(InputError, match=message):
            build()


def test_list_rows_are_stored_as_tuples():
    m = Matrix([[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]], 2)
    assert m.entries == ((0, 1), (-1, 0))
    assert m == Matrix.from_rows([[0, 1], [-1, 0]])
    assert hash(m) == hash(Matrix.from_rows([["0", "1"], ["-1", "0"]]))


def _assert_exact(value) -> None:
    """Every number inside `value` is an int or a Fraction: no float, no bool."""
    if isinstance(value, Matrix):
        value = value.entries
    if isinstance(value, (tuple, list)):
        for v in value:
            _assert_exact(v)
    elif value is not None:
        assert type(value) in (int, Fraction), value


def _random_rows(rng: random.Random, n: int, m: int, zero_diagonal: bool) -> list[list[int]]:
    # non-unit pivots come from entries such as 2, -3 and 6
    rows = [[rng.choice((0, 0, 1, -1, 2, -3, 6, 7)) for _ in range(m)] for _ in range(n)]
    if zero_diagonal:
        for i in range(min(n, m)):
            rows[i][i] = 0
    return rows


def _symmetric_pair(rng: random.Random, n: int, zero_diagonal: bool) -> tuple[list, list]:
    """S symmetric with small entries, and P^T S P for a unimodular P with large ones."""
    s = _random_rows(rng, n, n, zero_diagonal)
    s = [[s[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    p = Matrix.identity(n)
    for _ in range(3):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        step = [[int(r == c) for c in range(n)] for r in range(n)]
        if i != j:
            step[i][j] = rng.randint(-10**6, 10**6)
        p = p @ Matrix(step, n)
    return s, [list(row) for row in (p.transpose() @ Matrix(s, n) @ p).entries]


def test_int_and_fraction_entries_agree_exactly():
    rng = random.Random(2024)
    for trial in range(80):
        zero_diagonal = trial % 2 == 1
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rect = _random_rows(rng, n, m, zero_diagonal)
        square = _random_rows(rng, n, n, zero_diagonal)
        small, big = _symmetric_pair(rng, n, zero_diagonal)
        results = []
        for entry in (int, Fraction):
            a, sq, s, t = (Matrix([[entry(x) for x in r] for r in rows], len(rows[0]))
                           for rows in (rect, square, small, big))
            got = (_int_echelon([clear_denominators(row)[1] for row in a.entries])[1],
                   a.transpose() @ a, sq @ sq @ sq,
                   signature_symmetric(s), signature_symmetric(t))
            _assert_exact(got)
            assert got[-2] == got[-1] == signature_via_charpoly(s), big
            results.append(got)
        assert results[0] == results[1]


EXACT_ENTRIES = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))


def exact_matrices(rows: int, cols: int):
    row = st.tuples(*[EXACT_ENTRIES] * cols)
    return st.lists(row, min_size=rows, max_size=rows).map(lambda r: Matrix(r, cols))


def _assert_closed(m: Matrix) -> None:
    """Tuple rows of length `cols`, and equal to itself rebuilt through the checks."""
    assert type(m.entries) is tuple
    assert all(type(row) is tuple and len(row) == m.cols for row in m.entries)
    assert m == Matrix(m.entries, m.cols)


@st.composite
def closure_cases(draw):
    n, m, k = (draw(st.integers(0, 4)) for _ in range(3))
    a, b = draw(exact_matrices(n, m)), draw(exact_matrices(n, m))
    c, s = draw(exact_matrices(m, k)), draw(exact_matrices(n, n))
    genus = draw(st.integers(0, 2))
    vector = st.tuples(*[st.integers(-2, 2)] * (2 * genus))
    cycles = draw(st.lists(st.builds(VanishingCycle, vector, st.sampled_from((1, -1))),
                           max_size=4))
    return (a, b, c, s, draw(st.integers(0, 3)),
            SymplecticSpace(genus), cycles)


@given(closure_cases())
@settings(max_examples=150, deadline=None)
def test_exact_arithmetic_is_closed(case):
    a, b, c, s, power, space, cycles = case
    results = [a + b, a - b, a @ c, a.transpose(),
               reduce(matmul, [s] * power, Matrix.identity(s.rows)),
               Matrix.identity(a.rows), Matrix.zeros(a.rows, c.cols)]
    results += [phi for phi, _ in prefix_sweep(space, cycles)]
    for m in results:
        _assert_closed(m)


def test_matmul_values_and_empty_shapes():
    a = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])
    b = Matrix.from_rows([[0, 1, 2], [3, 0, -1]])
    assert a @ b == Matrix.from_rows([[6, 1, 0], [12, 3, 2], [18, 5, 4]])
    assert b @ a == Matrix.from_rows([[13, 16], [-2, 0]])
    assert Matrix.zeros(2, 0) @ Matrix.zeros(0, 3) == Matrix.zeros(2, 3)
    empty = Matrix.zeros(0, 2) @ Matrix.zeros(2, 3)
    assert (empty.rows, empty.cols) == (0, 3)
    assert Matrix.zeros(3, 2) @ Matrix.zeros(2, 0) == Matrix.zeros(3, 0)


def _entry_types(rows) -> list[list[type]]:
    return [[type(x) for x in row] for row in rows]


def test_matmul_matches_the_vec_dot_reference():
    """All-int operands take the C-level sum of products; any Fraction operand
    keeps `vec_dot`, whose skipped zero terms leave an int zero an int."""
    rng = random.Random(1616)
    values = (0, 0, 0, 1, -1, 2, -3, 10**40, -(10**25))
    for trial in range(300):
        n, m, k = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = [[rng.choice(values) for _ in range(m)] for _ in range(n)]
        b = [[rng.choice(values) for _ in range(k)] for _ in range(m)]
        if trial % 3 and m:  # put a few Fractions into one operand, zeros among them
            rows = a if trial % 3 == 1 else b
            for _ in range(rng.randint(1, 3)):
                row = rng.choice(rows) if rows else None
                if row:
                    row[rng.randrange(len(row))] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        left, right = Matrix(a, m), Matrix(b, k)
        got, want = (left @ right).entries, reference_matmul(left, right)
        assert got == want and _entry_types(got) == _entry_types(want)
        if trial % 3 == 0:
            assert {int}.issuperset(type(x) for row in got for x in row)


def test_matmul_shape_mismatch():
    with pytest.raises(InputError):
        Matrix.zeros(2, 3) @ Matrix.zeros(2, 3)


def test_span_basis_canonical():
    a = span_basis([(1, 1, 0), (0, 1, 1)], 3)
    b = span_basis([(1, 2, 1), (1, 0, -1), (2, 2, 0)], 3)
    assert a == b  # same subspace, same canonical representation


def test_sum_spans():
    u = span_basis([(1, 0, 0), (0, 1, 0)], 3)
    v = span_basis([(0, 1, 0), (0, 0, 1)], 3)
    join = span_basis(u + v, 3)
    assert len(join) == 3


def test_kernel_basis_of_rank_one():
    a = Matrix.from_rows([[1, 2, 3]])
    ker = kernel_basis(a)
    assert len(ker) == 2
    for v in ker:
        assert [vec_dot(row, v) for row in a.entries] == [0]
    assert _int_kernel([[1, 2, 3]], 3) == [[-2, 1, 0], [-3, 0, 1]]
