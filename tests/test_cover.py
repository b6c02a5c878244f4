"""Cyclic branched covers: correction matrices and the cover ladder."""

import random

import pytest

from lefsig import (
    InputError,
    Matrix,
    SymplecticSpace,
    correction_sigma,
    cover_signature,
    fiber_sum_defect,
    matrix_power,
    signature,
    word_action,
)
from lefsig.cover import correction_sums
from lefsig.ratlinalg import kernel_basis

from .fixtures import (
    CHAIN_CORRECTIONS,
    DELTA_STAR,
    FIXTURE_WORDS,
    MATSUMOTO_CORR_1,
    MATSUMOTO_CORRECTIONS,
    MATSUMOTO_PHI,
    chain_word,
    random_symplectic,
    random_word,
)

SP2 = SymplecticSpace.standard(2)


def test_correction_sums_match_power_sums():
    # independent reference: S_m = sum_{i<=m} ((phi^T)^i J - J phi^i) from matrix_power
    j = SP2.form
    random_phi = word_action(random_word(random.Random(84), 2, 8))
    for phi in (MATSUMOTO_PHI, random_phi):
        reference = Matrix.zeros(4, 4)
        for m, total in zip(range(1, 31), correction_sums(SP2, phi)):
            power = matrix_power(phi, m)
            reference = reference + (power.transpose() @ j - j @ power)
            assert total == reference, m


def test_first_matsumoto_correction_matrix():
    term = correction_sigma(SP2, MATSUMOTO_PHI, 1)
    assert term.matrix == MATSUMOTO_CORR_1
    assert term.sigma == 4
    assert term.power == 1


def test_matsumoto_correction_sequence():
    got = tuple(correction_sigma(SP2, MATSUMOTO_PHI, m).sigma for m in range(1, 10))
    assert got == MATSUMOTO_CORRECTIONS


def test_matsumoto_cover_ladder():
    assert cover_signature(0, MATSUMOTO_PHI, 2) == -4
    assert cover_signature(0, MATSUMOTO_PHI, 3) == -8
    assert cover_signature(0, MATSUMOTO_PHI, 5) == -12
    assert cover_signature(0, MATSUMOTO_PHI, 10) == -24


def test_separating_twist_correction():
    assert correction_sigma(SP2, DELTA_STAR, 1).sigma == 1


def test_chain_corrections_and_covers():
    phi = word_action(chain_word())
    got = tuple(correction_sigma(SP2, phi, m).sigma for m in range(1, 4))
    assert got == CHAIN_CORRECTIONS
    assert cover_signature(0, phi, 2) == -3
    assert cover_signature(0, phi, 4) == -7


def test_single_fold_needs_no_corrections():
    assert cover_signature(-5, MATSUMOTO_PHI, 1) == -5
    assert cover_signature(3, Matrix.identity(2), 1) == 3


def test_identity_monodromy_covers_additively():
    for n in (1, 2, 7):
        assert cover_signature(2, Matrix.identity(4), n) == 2 * n
        assert correction_sigma(SP2, Matrix.identity(4), n).sigma == 0


def test_correction_matrix_always_symmetric():
    rng = random.Random(81)
    for _ in range(12):
        space = SymplecticSpace.standard(rng.choice([1, 2]))
        phi = random_symplectic(rng, space)
        m = rng.randint(1, 4)
        term = correction_sigma(space, phi, m)
        assert term.matrix == term.matrix.transpose()


def test_fixed_vectors_of_next_power_are_radical():
    # kernel of (phi^{m+1} - Id) annihilates the m-th correction matrix
    rng = random.Random(82)
    checked = 0
    for _ in range(15):
        space = SymplecticSpace.standard(rng.choice([1, 2]))
        phi = random_symplectic(rng, space)
        m = rng.randint(1, 4)
        term = correction_sigma(space, phi, m)
        fixed = matrix_power(phi, m + 1) - Matrix.identity(space.dim)
        for v in kernel_basis(fixed):
            assert all(x == 0 for x in term.matrix.apply(v))
            checked += 1
    assert checked > 0


def test_correction_equals_gluing_defect():
    # two routes to the same number: sigma(S_m) and the Wall defect of
    # gluing phi against phi^m
    rng = random.Random(83)
    for _ in range(10):
        space = SymplecticSpace.standard(rng.choice([1, 2]))
        phi = random_symplectic(rng, space)
        m = rng.randint(1, 5)
        assert correction_sigma(space, phi, m).sigma == fiber_sum_defect(
            space, phi, matrix_power(phi, m))


def test_cover_matches_repeated_word():
    for factory in FIXTURE_WORDS.values():
        w = factory()
        base = signature(w).total
        phi = word_action(w)
        for n in (1, 2, 3, 5):
            assert signature(w.repeated(n)).total == cover_signature(base, phi, n)


def test_input_validation():
    with pytest.raises(InputError, match=">= 1"):
        correction_sigma(SP2, MATSUMOTO_PHI, 0)
    with pytest.raises(InputError, match="symplectic"):
        correction_sigma(SP2, Matrix.identity(2), 1)
    with pytest.raises(InputError, match="symplectic"):
        correction_sigma(SP2, Matrix.from_rows([[2, 0, 0, 0], [0, 2, 0, 0],
                                                [0, 0, 2, 0], [0, 0, 0, 2]]), 1)
    with pytest.raises(InputError, match=">= 1"):
        cover_signature(0, MATSUMOTO_PHI, 0)
    # phi is validated for every fold count, also when no correction is needed
    with pytest.raises(InputError, match="symplectic"):
        cover_signature(0, Matrix.from_rows([[2, 0], [0, 2]]), 1)
    with pytest.raises(InputError, match="even"):
        cover_signature(0, Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 2)
