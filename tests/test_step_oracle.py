"""The engine's integer step against a Fraction reference, and the pairing.

`local_sigma` eliminates the int rows [Id - Phi_k | gamma_k] once and signs
delta + c * Q(gamma_k, n) for the witness x = n / delta.  The reference here
takes Phi_k from `oracles.dense_prefix_actions`, reduces [Id - Phi_k | gamma_k]
over Fractions with `oracles.fraction_solve`, and signs 1 + c * gamma^T J x
with J written out densely.  The words mix left twists, null cycles, repeated
cycles and cancelling pairs, so rank-deficient and inconsistent steps occur.
The step's right-hand-column readout (`_int_solve`'s (D, n), `_divide`d) must
also equal the oracle's, down to the type of each entry: an int exactly where
it is integral.
"""

import random
from fractions import Fraction

import pytest

from lefsig import InputError, Matrix, SymplecticSpace, Surface, signature, word
from lefsig.ratlinalg import _divide, _int_solve, vec_dot

from .oracles import dense_prefix_actions, fraction_rref, fraction_solve, standard_form


def _dense_pairing(form, x, y) -> Fraction:
    n = len(x)
    return sum((x[i] * form[i][j] * y[j] for i in range(n) for j in range(n)), Fraction(0))


def _reference_step(phi, gamma, chirality, j_form):
    """(solvable, sigma, witness) of one step, over Fractions."""
    dim = len(gamma)
    if not any(gamma):
        return True, 0, None
    rows = [[Fraction(int(i == j) - phi[i][j]) for j in range(dim)] + [Fraction(gamma[i])]
            for i in range(dim)]
    x = fraction_solve(rows, dim)
    if x is None:
        return False, 0, None
    value = 1 + chirality * _dense_pairing(j_form, gamma, x)
    return True, (value > 0) - (value < 0), x


def _read_out(x):
    """The oracle's Fractions with the library's type rule applied."""
    return None if x is None else tuple(int(v) if v.denominator == 1 else v for v in x)


def _random_cycles(rng: random.Random, genus: int) -> list[tuple[tuple[int, ...], int]]:
    """Cycles on one or two handles, null cycles, repeats and cancelling pairs."""
    dim = 2 * genus
    handles = rng.sample(range(genus), min(genus, rng.randint(1, 2)))
    cycles: list[tuple[tuple[int, ...], int]] = []
    for _ in range(rng.randint(1, 10)):
        roll = rng.random()
        if roll < 0.1:
            cycles.append(((0,) * dim, rng.choice((1, -1))))
        elif roll < 0.25 and cycles:
            cycles.append(rng.choice(cycles))
        elif roll < 0.4 and cycles:
            g, c = cycles[-1]
            cycles.append((g, -c))
        else:
            g = [0] * dim
            for h in handles:
                g[2 * h], g[2 * h + 1] = rng.randint(-2, 2), rng.randint(-2, 2)
            cycles.append((tuple(g), rng.choice((1, -1))))
    return cycles


def test_integer_step_matches_fraction_reference():
    rng = random.Random(2012)
    kinds = {"unsolvable": 0, "deficient": 0, "left": 0, "null": 0}
    for _ in range(200):
        genus = rng.randint(1, 6)
        dim = 2 * genus
        cycles = _random_cycles(rng, genus)
        vectors = [g for g, _ in cycles]
        chiralities = [c for _, c in cycles]
        trace = signature(word(Surface(genus, 0), vectors, chiralities))
        actions = dense_prefix_actions(vectors, chiralities, dim)
        j_form = standard_form(dim)
        for step, phi, (g, c) in zip(trace.steps, actions[1:], cycles, strict=True):
            want = _reference_step(phi, g, c, j_form)
            assert (step.solvable, step.sigma, step.witness) == want, (vectors, chiralities)
            a = [[int(i == j) - phi[i][j] for j in range(dim)] for i in range(dim)]
            system = [row + [x] for row, x in zip(a, g)]
            solved = _int_solve([list(r) for r in system], dim)
            got = None if solved is None else tuple(_divide(solved[1], solved[0]))
            assert repr(got) == repr(_read_out(fraction_solve(system, dim))), (vectors, chiralities)
            kinds["unsolvable"] += not step.solvable
            kinds["null"] += not any(g)
            kinds["left"] += c == -1
            if step.witness is not None:
                kinds["deficient"] += len(fraction_rref(a)[1]) < dim
    assert all(count > 0 for count in kinds.values()), kinds


def _unimodular(rng: random.Random, dim: int) -> Matrix:
    """An integral M of determinant 1, a product of row additions: M^T J M is
    J written in another integral basis."""
    m = Matrix.identity(dim)
    for _ in range(3 * dim):
        i, j = rng.sample(range(dim), 2)
        t = rng.choice((1, -1, 2))
        rows = list(m.entries)
        rows[i] = [a + t * b for a, b in zip(rows[i], rows[j])]
        m = Matrix(rows, dim)
    return m


def test_pairing_matches_dense_form_on_non_standard_forms():
    # x^T (M^T J M) y, the dense form of another basis, is Q(M x, M y)
    rng = random.Random(2013)
    for genus in (2, 3, 4):  # at genus 1 every skew form is a multiple of J
        dim = 2 * genus
        space = SymplecticSpace(genus)
        standard = Matrix(standard_form(dim), dim)
        m = _unimodular(rng, dim)
        moved = m.transpose() @ standard @ m
        assert sum(1 for row in moved.entries for x in row if x) > dim
        for basis, form in ((Matrix.identity(dim), standard), (m, moved)):
            for _ in range(25):
                x = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(dim)]
                y = [rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-9, 9), 7)))
                     for _ in range(dim)]
                mx, my = ([vec_dot(row, v) for row in basis.entries] for v in (x, y))
                assert space.pairing(mx, my) == _dense_pairing(form.entries, x, y)
                assert space.pairing(my, mx) == -space.pairing(mx, my)
            with pytest.raises(InputError):
                space.pairing(x[:-1], y)
            with pytest.raises(InputError):
                space.pairing(x, y + [0])
