"""Cyclic branched covers: correction matrices, the cover ladder and the
partial fiber sum tree that gives the cover total."""

import random
import time
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import matmul

import pytest

from lefsig import (
    InputError,
    Matrix,
    SymplecticSpace,
    cover_signature,
    fiber_sum_defect,
    is_symplectic,
    signature,
    word_action,
)
from lefsig.cli import parse_fibration_document
from lefsig.cover import correction_sums, correction_terms
from lefsig.ratlinalg import vec_dot

from .fixtures import (
    CHAIN_CORRECTIONS,
    DATA_DIR,
    DELTA_STAR,
    FIXTURE_WORDS,
    MATSUMOTO_CORR_1,
    MATSUMOTO_CORRECTIONS,
    MATSUMOTO_PHI,
    block_sum,
    chain_word,
    handle_scaled,
    random_symplectic,
    random_word,
)
from .oracles import kernel_basis, reference_matmul


def _term(phi, m):
    """The m-th correction term, m >= 1: the last of the (m + 1)-fold cover."""
    *_, term = correction_terms(phi, m + 1)
    return term


def test_correction_sums_match_power_sums():
    # independent reference: S_m = sum_{i<=m} ((phi^T)^i J - J phi^i), phi^i by
    # repeated products.  Every product is `reference_matmul`, all `vec_dot`, not
    # the library's product rule.  The values are held to the power sums; the
    # entry types, which depend on the order of the products, are held by repr
    # to the ladder's recurrence X_m = phi^T X_{m-1}, S_m = S_{m-1} + (X_m + X_m^T)
    # run on `Matrix` sums and transposes
    rng = random.Random(84)
    words = [(2, word_action(random_word(rng, 2, 8))), (2, MATSUMOTO_PHI),
             (1, word_action(random_word(rng, 1, 8))), (3, word_action(random_word(rng, 3, 8))),
             (3, block_sum(MATSUMOTO_PHI, Matrix.identity(2)))]
    types = set()
    for genus, phi in words:
        space = SymplecticSpace(genus)
        d, j = space.dim, space.form
        for phi in (phi, handle_scaled(phi)):
            power_sum, power = Matrix.zeros(d, d), Matrix.identity(d)
            ladder, x = Matrix.zeros(d, d), j
            for m, total in zip(range(1, 31), correction_sums(phi)):
                power = Matrix(reference_matmul(power, phi), d)
                power_sum = power_sum + (Matrix(reference_matmul(power.transpose(), j), d)
                                         - Matrix(reference_matmul(j, power), d))
                x = Matrix(reference_matmul(phi.transpose(), x), d)
                ladder = ladder + (x + x.transpose())
                assert total == power_sum, (genus, m)
                assert repr(total) == repr(ladder), (genus, m)
                types.update(map(type, chain(*total.entries)))
    assert types == {int, Fraction}


def test_first_matsumoto_correction_matrix():
    term = next(correction_terms(MATSUMOTO_PHI, 2))
    assert term.matrix == MATSUMOTO_CORR_1
    assert term.sigma == 4
    assert term.power == 1


def test_matsumoto_correction_sequence():
    terms = list(correction_terms(MATSUMOTO_PHI, 10))
    assert [t.power for t in terms] == list(range(1, 10))
    assert tuple(t.sigma for t in terms) == MATSUMOTO_CORRECTIONS


def test_matsumoto_cover_ladder():
    assert cover_signature(0, MATSUMOTO_PHI, 2) == -4
    assert cover_signature(0, MATSUMOTO_PHI, 3) == -8
    assert cover_signature(0, MATSUMOTO_PHI, 5) == -12
    assert cover_signature(0, MATSUMOTO_PHI, 10) == -24


def test_separating_twist_correction():
    assert next(correction_terms(DELTA_STAR, 2)).sigma == 1


def test_chain_corrections_and_covers():
    phi = word_action(chain_word())
    got = tuple(t.sigma for t in correction_terms(phi, 4))
    assert got == CHAIN_CORRECTIONS
    assert cover_signature(0, phi, 2) == -3
    assert cover_signature(0, phi, 4) == -7


def test_single_fold_needs_no_corrections():
    assert cover_signature(-5, MATSUMOTO_PHI, 1) == -5
    assert cover_signature(3, Matrix.identity(2), 1) == 3


def test_identity_monodromy_covers_additively():
    for n in (1, 2, 7):
        assert cover_signature(2, Matrix.identity(4), n) == 2 * n
    assert [t.sigma for t in correction_terms(Matrix.identity(4), 8)] == [0] * 7


def test_correction_matrix_always_symmetric():
    rng = random.Random(81)
    for _ in range(12):
        space = SymplecticSpace(rng.choice([1, 2]))
        phi = random_symplectic(rng, space)
        m = rng.randint(1, 4)
        for term in correction_terms(phi, m + 1):
            assert term.matrix == term.matrix.transpose()


def test_fixed_vectors_of_next_power_are_radical():
    # kernel of (phi^{m+1} - Id) annihilates the m-th correction matrix
    rng = random.Random(82)
    checked = 0
    for _ in range(15):
        space = SymplecticSpace(rng.choice([1, 2]))
        phi = random_symplectic(rng, space)
        m = rng.randint(1, 4)
        term = _term(phi, m)
        assert term.power == m
        fixed = reduce(matmul, [phi] * (m + 1)) - Matrix.identity(space.dim)
        for v in kernel_basis(fixed):
            assert all(vec_dot(row, v) == 0 for row in term.matrix.entries)
            checked += 1
    assert checked > 0


def test_correction_equals_gluing_defect():
    # two routes to the same number: sigma(S_m) and the Wall defect of
    # gluing phi against phi^m
    rng = random.Random(83)
    for _ in range(10):
        space = SymplecticSpace(rng.choice([1, 2]))
        phi = random_symplectic(rng, space)
        m = rng.randint(1, 5)
        assert _term(phi, m).sigma == fiber_sum_defect(phi, reduce(matmul, [phi] * m))


def test_cover_matches_repeated_word():
    for factory in FIXTURE_WORDS.values():
        w = factory()
        base = signature(w).total
        phi = word_action(w)
        for n in (1, 2, 3, 5):
            assert signature(w.repeated(n)).total == cover_signature(base, phi, n)


def test_input_validation():
    # phi is checked when the terms are set up, before the first one is asked for
    with pytest.raises(InputError, match="^phi .* is not symplectic$"):
        correction_terms(Matrix.from_rows([[2, 0, 0, 0], [0, 2, 0, 0],
                                           [0, 0, 2, 0], [0, 0, 0, 2]]), 2)
    with pytest.raises(InputError, match=">= 1"):
        cover_signature(0, MATSUMOTO_PHI, 0)
    # phi is validated for every fold count, also when no correction is needed
    with pytest.raises(InputError, match="symplectic"):
        cover_signature(0, Matrix.from_rows([[2, 0], [0, 2]]), 1)
    with pytest.raises(InputError, match=r"^phi \(3x3\) is not symplectic$"):
        cover_signature(0, Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 2)
    # both counts are ints: a float fold used to die with a bare TypeError, a
    # float base signature came back as a float, and True counted as fold 1
    for base_sigma, n, field in ((0, 2.0, "n"), (0, True, "n"), (1.5, 2, "base_sigma"),
                                 (True, 2, "base_sigma"), (Fraction(3), 2, "base_sigma")):
        with pytest.raises(InputError, match=f"^{field} must be an integer, got "):
            cover_signature(base_sigma, MATSUMOTO_PHI, n)
    # the ladder's term count too: 2.5 died in `range` with a bare TypeError,
    # and True gave the terms of fold 1
    for n in (2.5, 2.0, True, Fraction(3)):
        with pytest.raises(InputError, match=r"^n must be an integer, got "):
            correction_terms(MATSUMOTO_PHI, n)
    # a fold below 1 used to yield no terms at all
    for n in (0, -5):
        with pytest.raises(InputError, match=f"^n must be >= 1, got {n}$"):
            correction_terms(MATSUMOTO_PHI, n)


def _ladder_totals(base_sigma, phi, max_n):
    """The cover totals n * sigma - sum_{m < n} sigma(S_m) for n = 1 .. max_n,
    read off one pass of the ladder."""
    totals, corrections = [base_sigma], 0
    for term in correction_terms(phi, max_n):
        corrections += term.sigma
        totals.append((term.power + 1) * base_sigma - corrections)
    return totals


def _assert_tree_matches_ladder(base_sigma, phi, max_n):
    for n, total in enumerate(_ladder_totals(base_sigma, phi, max_n), 1):
        assert cover_signature(base_sigma, phi, n) == total, n


def test_cover_total_matches_the_ladder_on_random_phi():
    rng = random.Random(85)
    for trial in range(9):
        space = SymplecticSpace(1 + trial % 3)
        _assert_tree_matches_ladder(rng.randint(-3, 3), random_symplectic(rng, space), 64)


def test_cover_total_matches_the_ladder_on_the_shipped_documents():
    for name in ("positive_g1", "matsumoto", "chain_relation", "parallel_twist_pair"):
        w = parse_fibration_document((DATA_DIR / f"{name}.json").read_text()).word
        _assert_tree_matches_ladder(signature(w).total, word_action(w), 64)


def _split_symplectic(rng, genus):
    """[[A, A S], [0, A^-T]] in the basis a1..ag, b1..bg, for a random unimodular
    A and symmetric S, read in the basis a1, b1, ..., ag, bg: symplectic, and
    not the action of any word."""
    def elementary(i, j, k):  # Id + k e_ij, i != j, whose inverse is Id - k e_ij
        return Matrix([[int(r == c) + k * ((r, c) == (i, j)) for c in range(genus)]
                       for r in range(genus)], genus)

    a, a_inv = Matrix.identity(genus), Matrix.identity(genus)
    for _ in range(3 * (genus - 1)):
        i, j = rng.sample(range(genus), 2)
        k = rng.randint(-2, 2)
        a, a_inv = a @ elementary(i, j, k), elementary(i, j, -k) @ a_inv
    s = [[rng.randint(-3, 3) for _ in range(genus)] for _ in range(genus)]
    s = Matrix([[s[min(r, c)][max(r, c)] for c in range(genus)] for r in range(genus)], genus)
    top = [ra + rb for ra, rb in zip(a.entries, (a @ s).entries)]
    bottom = [(0,) * genus + row for row in a_inv.transpose().entries]
    split = top + bottom
    place = [2 * i for i in range(genus)] + [2 * i + 1 for i in range(genus)]
    order = sorted(range(2 * genus), key=place.__getitem__)
    return Matrix([[split[r][c] for c in order] for r in order], 2 * genus)


def test_cover_total_matches_the_ladder_at_the_edges():
    # the identity and fold 1 are held above; genus 0 is the 0 x 0 monodromy
    _assert_tree_matches_ladder(3, Matrix.identity(0), 12)
    assert cover_signature(-2, Matrix.identity(0), 10**6) == -2 * 10**6
    rng = random.Random(87)
    fractional = 0
    for genus in (1, 2, 3):
        space = SymplecticSpace(genus)
        # a phi that no word built, a product of transvections, and their
        # `handle_scaled` conjugates
        for phi in (_split_symplectic(rng, genus), random_symplectic(rng, space)):
            rational = handle_scaled(phi)
            assert is_symplectic(phi) and is_symplectic(rational)
            fractional += any(x.denominator > 1 for row in rational.entries for x in row)
            base = rng.randint(-3, 3)
            totals = _ladder_totals(base, phi, 16)
            assert _ladder_totals(base, rational, 16) == totals
            for n, total in enumerate(totals, 1):
                assert cover_signature(base, phi, n) == cover_signature(base, rational, n) == total
    assert fractional >= 4

def test_matsumoto_cover_at_fold_ten_to_the_fifth():
    # about 17 defects and products on the tree; the ladder would take 10^5 - 1 terms
    start = time.perf_counter()
    assert cover_signature(0, MATSUMOTO_PHI, 10**5) == -240_000
    assert time.perf_counter() - start < 0.1
