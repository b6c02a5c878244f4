"""Symplectic spaces, transvections, words, Lagrangians."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefsig import (
    InputError,
    Lagrangian,
    Matrix,
    Surface,
    SymplecticSpace,
    VanishingCycle,
    effective_dimension,
    graph_lagrangians,
    is_symplectic,
    map_lagrangian,
    transvection,
    word,
    word_action,
)

from .fixtures import (
    BLOCK_ACTION,
    DELTA,
    DELTA_STAR,
    MATSUMOTO_PHI,
    TWIST_1_0,
    TWIST_1_5,
    TWIST_2_5,
    matsumoto_word,
    positive_word,
    random_symplectic,
)


def test_standard_form_squares_to_minus_identity():
    for g in (0, 1, 2, 3):
        j = SymplecticSpace.standard(g).form
        assert j @ j == -Matrix.identity(2 * g)
        assert j.transpose() == -j


def test_pairing_is_determinant_in_the_plane():
    sp = SymplecticSpace.standard(1)
    assert sp.pairing([1, 0], [0, 1]) == 1
    assert sp.pairing([0, 1], [1, 0]) == -1
    assert sp.pairing([2, 5], [1, 5]) == 5


def test_transvection_matches_known_twists():
    sp = SymplecticSpace.standard(1)
    assert transvection(sp, VanishingCycle((1, 0))) == TWIST_1_0
    assert transvection(sp, VanishingCycle((2, 5))) == TWIST_2_5
    assert transvection(sp, VanishingCycle((1, 5))) == TWIST_1_5


def test_transvection_separating_curve():
    sp = SymplecticSpace.standard(2)
    assert transvection(sp, VanishingCycle(DELTA)) == DELTA_STAR


def test_left_twist_inverts_right_twist():
    sp = SymplecticSpace.standard(2)
    for vec in [(1, 0, 0, 0), (0, 1, -1, 1), (2, 3, -1, 5)]:
        r = transvection(sp, VanishingCycle(vec, 1))
        l = transvection(sp, VanishingCycle(vec, -1))
        assert r @ l == Matrix.identity(4)
        assert l @ r == Matrix.identity(4)


def test_transvection_fixes_its_cycle():
    sp = SymplecticSpace.standard(2)
    cycle = VanishingCycle((1, 2, 0, -1))
    t = transvection(sp, cycle)
    assert t.apply(cycle.vector()) == cycle.vector()


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=4),
       st.lists(st.sampled_from([1, -1]), min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_transvection_products_are_symplectic(vecs, chis):
    sp = SymplecticSpace.standard(2)
    m = Matrix.identity(4)
    for v, c in zip(vecs, chis):
        m = transvection(sp, VanishingCycle(v, c)) @ m
    assert is_symplectic(sp, m)


def test_word_action_block():
    assert word_action(positive_word()) == BLOCK_ACTION
    assert word_action(positive_word(), 0) == Matrix.identity(2)


def test_word_action_matsumoto():
    assert word_action(matsumoto_word()) == MATSUMOTO_PHI
    assert is_symplectic(SymplecticSpace.standard(2), MATSUMOTO_PHI)


def test_cold_word_action_on_ten_thousand_cycles():
    # matsumoto's phi has order 10, so 2500 repetitions act as the identity
    w = matsumoto_word(2500)
    assert word_action(w) == Matrix.identity(4)
    assert word_action(w, 4) == MATSUMOTO_PHI


def test_effective_dimension_table():
    assert effective_dimension(Surface(1, 1)) == 2
    assert effective_dimension(Surface(2, 0)) == 4
    assert effective_dimension(Surface(1, 2)) == 4
    assert effective_dimension(Surface(0, 1)) == 0
    assert effective_dimension(Surface(0, 0)) == 0
    assert effective_dimension(Surface(0, 3)) == 4


def test_word_rejects_wrong_vector_length():
    with pytest.raises(InputError, match="expected 4"):
        word(Surface(2, 0), [[1, 0]])


def test_zero_dimensional_word_allows_only_empty_cycles():
    w = word(Surface(0, 1), [[]])
    assert w.cycles[0].is_null_homologous
    assert word_action(w) == Matrix.identity(0)


def test_graph_lagrangian_basis():
    sp = SymplecticSpace.standard(1)
    m = Matrix.from_rows([[1, 1], [0, 1]])
    graph, conj = graph_lagrangians(sp, m)
    doubled = sp.doubled()
    assert graph == Lagrangian.span(doubled, [(1, 0, 1, 0), (0, 1, 1, 1)])
    assert conj == Lagrangian.span(doubled, [(1, 0, 1, 0), (1, 1, 0, 1)])


def test_graph_rejects_non_symplectic():
    sp = SymplecticSpace.standard(1)
    with pytest.raises(InputError):
        graph_lagrangians(sp, Matrix.from_rows([[2, 0], [0, 2]]))


def test_lagrangian_span_validates():
    sp = SymplecticSpace.standard(2)
    with pytest.raises(InputError, match="rank"):
        Lagrangian.span(sp, [(1, 0, 0, 0)])
    with pytest.raises(InputError, match="isotropic"):
        Lagrangian.span(sp, [(1, 0, 0, 0), (0, 1, 0, 0)])
    # redundant spanning vectors are fine
    lag = Lagrangian.span(sp, [(1, 0, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0)])
    assert lag.dim == 2


def test_map_lagrangian_stays_lagrangian():
    rng = random.Random(11)
    sp = SymplecticSpace.standard(2)
    lag = Lagrangian.span(sp, [(1, 0, 0, 0), (0, 0, 1, 0)])
    for _ in range(10):
        m = random_symplectic(rng, sp)
        moved = map_lagrangian(m, lag)
        assert moved.dim == 2  # construction re-validates isotropy


def test_surface_validation():
    with pytest.raises(InputError):
        Surface(-1, 0)
    with pytest.raises(InputError):
        VanishingCycle((1, 0), chirality=2)


def test_doubled_space_form():
    sp = SymplecticSpace.standard(1)
    d = sp.doubled()
    assert d.dim == 4
    assert d.pairing([1, 0, 0, 0], [0, 1, 0, 0]) == 1
    assert d.pairing([0, 0, 1, 0], [0, 0, 0, 1]) == -1  # second summand carries -Q
