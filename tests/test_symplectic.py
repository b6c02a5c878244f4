"""Symplectic spaces, transvections, words, Lagrangians."""

import math
import random
from fractions import Fraction

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
    direct_sum_lagrangian,
    generate,
    is_symplectic,
    local_sigma,
    map_lagrangian,
    maslov_index,
    shortcut_dual_preserved,
    signature,
    transvection,
    word,
    word_action,
)
from lefsig import symplectic
from lefsig.ratlinalg import clear_denominators, vec_dot
from lefsig.symplectic import MAX_DIMENSION

from .fixtures import (
    BLOCK_ACTION,
    DELTA,
    DELTA_STAR,
    MATSUMOTO_PHI,
    TWIST_1_0,
    TWIST_1_5,
    TWIST_2_5,
    block_sum,
    handle_scaled,
    matsumoto_word,
    positive_word,
    random_lagrangian,
    random_symplectic,
    stream_word,
)
from .oracles import (
    dense_prefix_actions,
    doubled_space,
    fraction_rref,
    graph,
    reference_apply_form,
    reference_gram,
    reference_is_symplectic,
    span_basis,
    standard_form,
    symplectic_inverse,
)


def test_standard_form_squares_to_minus_identity():
    for g in (0, 1, 2, 3):
        j, zero = SymplecticSpace(g).form, Matrix.zeros(2 * g, 2 * g)
        assert j @ j == zero - Matrix.identity(2 * g)
        assert j.transpose() == zero - j


def test_dimension_ceiling_is_checked_before_allocating():
    half = MAX_DIMENSION // 2
    assert Surface(half, 0).half_dim == half
    assert Surface(1, half).half_dim == half
    for genus, boundary in ((half + 1, 0), (1, half + 1), (10**20, 0), (int("9" * 4300), 3)):
        with pytest.raises(InputError, match="genus and boundary") as exc:
            Surface(genus, boundary)
        assert str(MAX_DIMENSION + 2) not in str(exc.value)
    for half_dim in (half + 1, 10**20):
        with pytest.raises(InputError, match=rf"^half_dim {half_dim} out of range 0\.\.{half}$"):
            SymplecticSpace(half_dim)


def test_constructor_checks_the_half_dimension():
    """A space is its half dimension: its one check is an int h >= 0 with
    2h <= MAX_DIMENSION."""
    for h in range(7):
        space = SymplecticSpace(h)
        assert space.half_dim == h and space.dim == 2 * h
    assert SymplecticSpace(MAX_DIMENSION // 2).dim == MAX_DIMENSION
    half = MAX_DIMENSION // 2
    for bad, message in ((SymplecticSpace(1).form, "half_dim must be an integer"),
                         (True, "half_dim must be an integer"),
                         (-1, f"half_dim -1 out of range 0..{half}"),
                         (half + 1, f"half_dim {half + 1} out of range 0..{half}")):
        with pytest.raises(InputError, match=message):
            SymplecticSpace(bad)


def test_direct_sum_space_is_the_standard_space():
    """A block sum of standard forms is the standard form, so
    `direct_sum_lagrangian` lands in `SymplecticSpace(h_a + h_b)` and builds no J."""
    rng = random.Random(31)
    spaces = [SymplecticSpace(h) for h in range(1, 4)]
    pairs = [(random_lagrangian(rng, a), random_lagrangian(rng, b))
             for a in spaces for b in spaces for _ in range(3)]
    point = random_lagrangian(rng, SymplecticSpace(0))
    assert point == Lagrangian(SymplecticSpace(0), [])
    pairs += [(point, pairs[-1][0]), (pairs[-1][1], point), (point, point)]
    for a, b in pairs:
        space = SymplecticSpace(a.space.half_dim + b.space.half_dim)
        got = direct_sum_lagrangian(a, b)
        assert got.space == space and hash(got.space) == hash(space)
        assert "form" not in got.space.__dict__
        assert got == Lagrangian(space, [v + (0,) * b.space.dim for v in a.basis]
                                 + [(0,) * a.space.dim + v for v in b.basis])
        assert got.space.form == block_sum(a.space.form, b.space.form)
    half = SymplecticSpace(MAX_DIMENSION // 4 + 1)
    lag = Lagrangian(half, tuple(tuple(int(j == 2 * i) for j in range(half.dim))
                                 for i in range(half.half_dim)))
    message = f"^half_dim {2 * half.half_dim} out of range 0..{MAX_DIMENSION // 2}$"
    with pytest.raises(InputError, match=message):
        direct_sum_lagrangian(lag, lag)


def test_pairing_is_determinant_in_the_plane():
    sp = SymplecticSpace(1)
    assert sp.pairing([1, 0], [0, 1]) == 1
    assert sp.pairing([0, 1], [1, 0]) == -1
    assert sp.pairing([2, 5], [1, 5]) == 5
    # entries by `as_vector`: a "p/q" literal is a rational, and an int pair stays an int
    got = [sp.pairing(["1/2", 0], [0, 1]), sp.pairing([1, 0], ["0", "-6/8"]),
           sp.pairing([2, 5], [1, 5]), sp.pairing([Fraction(1, 3), 0], [0, 3])]
    assert got == [Fraction(1, 2), Fraction(-3, 4), 5, 1]
    assert list(map(type, got)) == [Fraction, Fraction, int, Fraction]
    for x, y in (([1], [1, 0]), ([1, 0], [1, 0, 0])):
        with pytest.raises(InputError, match=f"lengths {len(x)} and {len(y)} in dimension 2"):
            sp.pairing(x, y)


def test_transvection_matches_known_twists():
    assert transvection(VanishingCycle((1, 0))) == TWIST_1_0
    assert transvection(VanishingCycle((2, 5))) == TWIST_2_5
    assert transvection(VanishingCycle((1, 5))) == TWIST_1_5


def test_transvection_separating_curve():
    assert transvection(VanishingCycle(DELTA)) == DELTA_STAR


def test_left_twist_inverts_right_twist():
    for vec in [(1, 0, 0, 0), (0, 1, -1, 1), (2, 3, -1, 5)]:
        r = transvection(VanishingCycle(vec, 1))
        l = transvection(VanishingCycle(vec, -1))
        assert r @ l == Matrix.identity(4)
        assert l @ r == Matrix.identity(4)


def test_transvection_fixes_its_cycle():
    cycle = VanishingCycle((1, 2, 0, -1))
    t = transvection(cycle)
    assert tuple(vec_dot(row, cycle.homology_class) for row in t.entries) == cycle.homology_class


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=4),
       st.lists(st.sampled_from([1, -1]), min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_transvection_products_are_symplectic(vecs, chis):
    m = Matrix.identity(4)
    for v, c in zip(vecs, chis):
        m = transvection(VanishingCycle(v, c)) @ m
    assert is_symplectic(m)


def test_is_symplectic_matches_the_product_oracle():
    # int and rational symplectic matrices of the standard form, each held to
    # M^T J M == J with one entry bent, and matrices of the wrong shape
    rng = random.Random(91)
    standard = SymplecticSpace(2)
    cases = []
    for genus in (1, 2, 3):
        space = SymplecticSpace(genus)
        for _ in range(4):
            phi = random_symplectic(rng, space)
            cases += [(space, phi), (space, handle_scaled(phi))]
    bent_false = 0
    for space, m in cases:
        assert is_symplectic(m) and reference_is_symplectic(space, m)
        for _ in range(3):
            rows = [list(row) for row in m.entries]
            rows[rng.randrange(space.dim)][rng.randrange(space.dim)] += rng.choice(
                [1, -1, Fraction(1, 2)])
            bent = Matrix(rows, space.dim)
            assert is_symplectic(bent) == reference_is_symplectic(space, bent)
            bent_false += not is_symplectic(bent)
    assert bent_false > 0
    # the space is the size: an identity of every even size is symplectic, a
    # matrix that is not square of even size is not
    for m in (Matrix.identity(0), Matrix.identity(2), Matrix.identity(6), Matrix.zeros(0, 0)):
        assert is_symplectic(m) and reference_is_symplectic(SymplecticSpace(m.rows // 2), m)
    for m in (Matrix.zeros(4, 2), Matrix.zeros(2, 4), Matrix.identity(3),
              block_sum(Matrix.identity(4), Matrix.zeros(0, 1))):
        assert not is_symplectic(m) and not reference_is_symplectic(standard, m)


def test_gram_matches_the_per_vector_oracle():
    # J applied by swap-and-negate in `_gram`, `pairing` and `_apply_form`
    # against the dense J written out, values and types, on every standard
    # space up to genus 6, int and Fraction vectors, empty us and vs
    rng = random.Random(1973)

    def vector(d: int, rational: bool) -> tuple:
        if rational:
            return tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5))) for _ in range(d))
        return tuple(rng.randint(-5, 5) for _ in range(d))

    def types(rows):
        return [[type(x) for x in row] for row in rows]

    for h in range(7):
        space = SymplecticSpace(h)
        d = space.dim
        assert space.form == Matrix(standard_form(d), d)
        for _ in range(8):
            us = [vector(d, rng.random() < 0.3) for _ in range(rng.randint(0, 4))]
            vs = [vector(d, rng.random() < 0.3) for _ in range(rng.randint(0, 4))]
            got, want = symplectic._gram(us, vs), reference_gram(space, us, vs)
            assert got == want and types(got) == types(want), (space, us, vs)
            for v in vs:
                jv, want_jv = symplectic._apply_form(v), reference_apply_form(v)
                assert jv == want_jv and types([jv]) == types([want_jv]), v
            pairs = [(u, v) for u in us for v in vs]
            got = [space.pairing(u, v) for u, v in pairs]
            assert got == [want[i][j] for i in range(len(us)) for j in range(len(vs))]
            assert types([got]) == types([[reference_gram(space, [u], [v])[0][0]
                                           for u, v in pairs]])
        u = vector(d, False)
        assert symplectic._gram([u], []) == reference_gram(space, [u], []) == ((),)
        assert symplectic._gram([], [u]) == reference_gram(space, [], [u]) == ()
    assert symplectic._gram([(), ()], [()]) == ((0,), (0,))
    assert SymplecticSpace(0).pairing((), ()) == 0


def test_signature_applies_the_form_without_building_it():
    """The steps and the random-access entries apply J; the dense d x d form is
    built on first read only.  A genus-500 word of one-handle cycles on its
    first 15 handles gives the steps of the same cycles at genus 15."""
    vectors = []
    for i in range(15):
        a, b = [0] * 30, [0] * 30
        a[2 * i], b[2 * i + 1] = 1, 1
        vectors += [a, b]
    chiralities = [1, -1] * 15
    small = signature(word(Surface(15, 0), vectors, chiralities))
    w = word(Surface(500, 0), [v + [0] * 970 for v in vectors], chiralities)
    trace = signature(w)
    assert [(s.solvable, s.sigma) for s in trace.steps] == \
        [(s.solvable, s.sigma) for s in small.steps]
    assert trace.total == small.total
    assert [s.witness[:30] for s in trace.steps if s.witness] == \
        [s.witness for s in small.steps if s.witness]
    assert local_sigma(w, 30) == trace.steps[-1]
    assert shortcut_dual_preserved(w, 30) == shortcut_dual_preserved(small.word, 30)
    assert "form" not in w.space.__dict__
    assert w.space.form.rows == 1000 and "form" in w.space.__dict__


def test_word_action_block():
    assert word_action(positive_word()) == BLOCK_ACTION
    assert word_action(positive_word(), 0) == Matrix.identity(2)


def test_word_action_matsumoto():
    assert word_action(matsumoto_word()) == MATSUMOTO_PHI
    assert is_symplectic(MATSUMOTO_PHI)


def test_cold_word_action_on_ten_thousand_cycles():
    # matsumoto's phi has order 10, so 2500 repetitions act as the identity
    w = matsumoto_word(2500)
    assert word_action(w) == Matrix.identity(4)
    assert word_action(w, 4) == MATSUMOTO_PHI


def random_word(rng, surface, n, spread=2):
    """n random cycles of both chiralities, one of them null-homologous."""
    dim = 2 * surface.half_dim
    vecs = [[rng.randint(-spread, spread) for _ in range(dim)] for _ in range(n)]
    vecs[rng.randrange(n)] = [0] * dim
    chis = [1, -1] + [rng.choice([1, -1]) for _ in range(n - 2)]
    rng.shuffle(chis)
    return word(surface, vecs, chis)


def oracle_prefixes(w):
    dim = 2 * w.surface.half_dim
    oracle = dense_prefix_actions([c.homology_class for c in w.cycles],
                                  [c.chirality for c in w.cycles], dim)
    return [Matrix.from_rows(phi, cols=dim) for phi in oracle]


def test_prefix_actions_match_dense_oracle():
    rng = random.Random(404)
    for genus in range(1, 7):
        for boundary in (0, 1, 3):
            w = random_word(rng, Surface(genus, boundary), rng.randint(3, 8))
            expected = oracle_prefixes(w)
            assert [word_action(w, k) for k in range(len(w) + 1)] == expected
            assert [s.cumulative_action for s in signature(w).steps] == expected[1:]


def test_genus_forty_prefix_actions_match_dense_oracle():
    w = random_word(random.Random(40), Surface(40, 0), 6)
    assert [word_action(w, k) for k in range(len(w) + 1)] == oracle_prefixes(w)


def test_prefix_sweep_yields_each_prefix_action_and_its_spanned_rows():
    """For every k the sweep's (Phi_k, I_k): Phi_k is the dense product, I_k
    contains I_{k-1}, |I_k| is the rank of gamma_1 .. gamma_k, and those
    cycles restricted to the coordinates I_k keep that rank."""
    rng = random.Random(32)
    seen = dict.fromkeys(("null", "repeated", "non-primitive", "left", "filled", "partial"), 0)
    for _ in range(80):
        w = stream_word(rng)
        dim = w.space.dim
        vectors = [c.homology_class for c in w.cycles]
        chiralities = [c.chirality for c in w.cycles]
        dense = dense_prefix_actions(vectors, chiralities, dim)
        sweep = list(symplectic.prefix_sweep(w.space, w.cycles))
        assert len(sweep) == len(w) + 1
        previous: tuple = ()
        for k, (phi, rows) in enumerate(sweep):
            assert phi == Matrix.from_rows(dense[k], cols=dim), k
            assert list(rows) == sorted(set(rows)) and set(previous) <= set(rows), k
            rank = len(fraction_rref(vectors[:k])[1])
            assert len(rows) == rank, k
            assert len(fraction_rref([[v[i] for i in rows] for v in vectors[:k]])[1]) == rank
            previous = rows
        seen["null"] += any(not any(v) for v in vectors)
        seen["repeated"] += len(set(map(tuple, vectors))) < len(vectors)
        seen["non-primitive"] += any(any(v) and math.gcd(*v) > 1 for v in vectors)
        seen["left"] += -1 in chiralities
        seen["filled"] += len(previous) == dim
        seen["partial"] += 0 < len(previous) < dim
    assert all(n >= 10 for n in seen.values()), seen


def test_half_dim_table():
    assert Surface(1, 1).half_dim == 1
    assert Surface(2, 0).half_dim == 2
    assert Surface(1, 2).half_dim == 2
    assert Surface(0, 1).half_dim == 0
    assert Surface(0, 0).half_dim == 0
    assert Surface(0, 3).half_dim == 2


def test_word_rejects_wrong_vector_length():
    with pytest.raises(InputError, match="expected 4"):
        word(Surface(2, 0), [[1, 0]])
    for chiralities in ([], [1, -1, 1]):
        with pytest.raises(InputError) as exc:
            word(Surface(1, 0), [[1, 0], [0, 1]], chiralities)
        assert str(exc.value) == "one chirality per cycle required"


def test_zero_dimensional_word_allows_only_empty_cycles():
    w = word(Surface(0, 1), [[]])
    assert w.cycles[0].is_null_homologous
    assert word_action(w) == Matrix.identity(0)


def test_graph_lagrangian_basis():
    sp = SymplecticSpace(1)
    m = Matrix.from_rows([[1, 1], [0, 1]])
    doubled = doubled_space(sp)
    assert doubled == SymplecticSpace(2)
    # rows (e_i, swap(M e_i)): a_1 and b_1 trade places in the second copy
    assert graph(doubled, m) == Lagrangian(doubled, [(1, 0, 0, 1), (0, 1, 1, 1)])
    conj = graph(doubled, symplectic_inverse(sp, m))
    assert conj == Lagrangian(doubled, [(1, 0, 0, 1), (1, 1, 1, 0)])


def test_graph_rejects_non_symplectic():
    doubled = doubled_space(SymplecticSpace(1))
    with pytest.raises(InputError, match="isotropic"):
        graph(doubled, Matrix.from_rows([[2, 0], [0, 2]]))


def test_lagrangian_span_validates():
    sp = SymplecticSpace(2)
    with pytest.raises(InputError, match="rank"):
        Lagrangian(sp, [(1, 0, 0, 0)])
    with pytest.raises(InputError, match="isotropic"):
        Lagrangian(sp, [(1, 0, 0, 0), (0, 1, 0, 0)])
    # redundant spanning vectors are fine
    lag = Lagrangian(sp, [(1, 0, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0)])
    assert len(lag.basis) == 2
    # one subspace from several spanning sets: one basis, one hash
    u, v = (2, 1, 0, -3), (3, 0, 1, 5)  # Q(u, v) = 0 - 3 + 0 + 3 = 0
    spellings = [
        [u, v],
        [v, u],
        [tuple(Fraction(-5, 7) * x for x in u), tuple(Fraction(3, 2) * x for x in v)],
        [[f"{x}/4" for x in u], [str(x) for x in v]],
        [v, tuple(a + b for a, b in zip(u, v)), u, tuple(a - 2 * b for a, b in zip(u, v))],
    ]
    lags = [Lagrangian(sp, s) for s in spellings]
    assert all(other == lags[0] and hash(other) == hash(lags[0]) for other in lags)
    for other in lags + [lag]:
        for row in other.basis:
            assert all(type(x) is int for x in row)
            assert math.gcd(*row) == 1
            assert next(x for x in row if x) > 0


def test_raw_lagrangian_checks_its_shape():
    """`Lagrangian(space, basis)` is the span of any spanning set: each
    refusal names what is wrong, and every spelling of one subspace gives
    the one canonical basis and hash."""
    sp = SymplecticSpace(2)
    good = Lagrangian(sp, ((1, 0, 0, 0), (0, 0, 1, 0)))
    assert Lagrangian(sp, good.basis) == good
    for basis, message in (
        (((1, 0, 0, 0),), "rank 1"),  # too few rows
        (((1, 0, 0, 0), (0, 0, 1)), "vector of length 3"),  # a short row
        (((1, 0, 0, 0), (0, 0, 1.0, 0)), "not an exact rational"),  # a float
        (((1, 0, 0, 0), (0, 0, True, 0)), "not an exact rational"),  # a bool
        (((1, 0, 0, 0), (0, 1, 0, 0)), "spanning set is not isotropic"),
    ):
        with pytest.raises(InputError, match=message):
            Lagrangian(sp, basis)
    # isotropic but dependent: it used to reach maslov_index, which raised
    # InternalConsistencyError in first place and gave a meaningless number
    # in second or third
    other = Lagrangian(sp, ((0, 1, 0, 0), (0, 0, 0, 1)))
    with pytest.raises(InputError, match="^spanning set has rank 1, a Lagrangian needs 2$"):
        maslov_index(Lagrangian(sp, ((1, 0, 0, 0), (2, 0, 0, 0))), good, other)
    for basis in (
        ((1, 0, 0, 0), (0, 0, Fraction(1), 0)),  # a Fraction row
        ((1, 0, 0, 0), [0, 0, 1, 0]),  # a list row
        [(1, 0, 0, 0), (0, 0, 1, 0)],  # a list of rows
        ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)),  # an extra zero row
        ((2, 0, 0, 0), (0, 0, 1, 0)),  # scaled: it used to compare unequal
    ):
        lag = Lagrangian(sp, basis)
        assert lag == good and hash(lag) == hash(good) and lag.basis == good.basis


def test_constructor_gives_back_its_basis():
    """A canonical basis is a fixed point of the constructor, at genus 0-4
    and on the images of random Lagrangians under random maps."""
    rng = random.Random(1789)
    for _ in range(100):
        space = SymplecticSpace(rng.randint(0, 4))
        lag = random_lagrangian(rng, space)
        for lag in (lag, map_lagrangian(random_symplectic(rng, space), lag)):
            again = Lagrangian(lag.space, lag.basis)
            assert again == lag and again.basis == lag.basis


def test_lagrangian_basis_is_the_cleared_rref_basis():
    """`Lagrangian` reads its basis off the int elimination; it must be the
    RREF basis with each row's denominators cleared, as it was defined."""
    rng = random.Random(1976)
    negative_pivots = 0
    for _ in range(200):
        sp = SymplecticSpace(rng.randint(1, 3))
        m = random_symplectic(rng, sp)
        scales = [rng.choice((1, -1, 3, Fraction(-2, 5))) for _ in range(sp.half_dim)]
        columns = m.transpose().entries
        vectors = [[c * x for x in columns[2 * i]] for i, c in enumerate(scales)]
        for _ in range(rng.randint(0, 2)):
            coeffs = [rng.randint(-2, 2) for _ in vectors]
            combo = [sum(c * v[k] for c, v in zip(coeffs, vectors)) for k in range(sp.dim)]
            vectors.insert(rng.randint(0, len(vectors)), combo)
        negative_pivots += any(next((x for x in v if x), 0) < 0 for v in vectors)
        want = tuple(tuple(clear_denominators(v)[1]) for v in span_basis(vectors, sp.dim))
        assert Lagrangian(sp, vectors).basis == want
    assert negative_pivots >= 40


def test_map_lagrangian_stays_lagrangian():
    rng = random.Random(11)
    sp = SymplecticSpace(2)
    lag = Lagrangian(sp, [(1, 0, 0, 0), (0, 0, 1, 0)])
    for _ in range(10):
        m = random_symplectic(rng, sp)
        moved = map_lagrangian(m, lag)
        assert len(moved.basis) == 2  # construction re-validates isotropy


def test_map_lagrangian_images_are_one_product():
    """The images of the basis come from one product; they span what the
    images M v, one `vec_dot` per row of M each, span, with Fraction entries too, and
    a map that is not dim x dim is refused."""
    rng = random.Random(1966)
    sp = SymplecticSpace(2)
    scale = Matrix.from_rows([[2, 0, 0, 0], [0, "1/2", 0, 0], [0, 0, 2, 0], [0, 0, 0, "1/2"]])
    for _ in range(20):
        lag = random_lagrangian(rng, sp)
        for m in (random_symplectic(rng, sp), scale @ random_symplectic(rng, sp)):
            images = [[vec_dot(row, v) for row in m.entries] for v in lag.basis]
            assert map_lagrangian(m, lag) == Lagrangian(sp, images)
    assert map_lagrangian(scale, Lagrangian(sp, [(1, 1, 0, 0), (0, 0, 1, 1)])) == \
        Lagrangian(sp, [(4, 1, 0, 0), (0, 0, 4, 1)])
    for m in (Matrix.identity(2), Matrix.identity(6), Matrix.zeros(4, 2), Matrix.zeros(2, 4),
              Matrix.zeros(0, 4), Matrix.zeros(4, 0)):
        with pytest.raises(InputError):
            map_lagrangian(m, lag)


def test_surface_validation():
    with pytest.raises(InputError):
        Surface(-1, 0)
    with pytest.raises(InputError):
        VanishingCycle((1, 0), chirality=2)


@pytest.mark.parametrize("vector, chirality, field", [
    ((True, False), 1, "vector"),
    ((1, 0.0), 1, "vector"),
    ((1, 0), True, "chirality"),
    ((1, 0), -1.0, "chirality"),
])
def test_vanishing_cycle_rejects_bools_and_floats(vector, chirality, field):
    with pytest.raises(InputError, match=field):
        VanishingCycle(vector, chirality)


@pytest.mark.parametrize("make, field", [
    (lambda: Surface(1.5, 0), "genus"),
    (lambda: Surface(True, 0), "genus"),
    (lambda: Surface(1, 2.0), "boundary"),
    (lambda: Surface(1, False), "boundary"),
    (lambda: generate(1.5, 0, 1), "genus"),
    (lambda: generate(True, 0, 1), "genus"),
    (lambda: generate(1, True, 1), "boundary"),
    (lambda: generate(1, 0, 2.5), "repetitions"),
    (lambda: generate(1, 0, True), "repetitions"),
])
def test_surface_and_family_spec_reject_bools_and_floats(make, field):
    with pytest.raises(InputError, match=field):
        make()


@pytest.mark.parametrize("bad", [1.0, 2.0, True, "2"])
def test_counts_and_indices_are_ints(bad):
    """A float or a string used to die with a bare TypeError, and True was
    taken as 1 (`word_action(w, True)` returned Phi_1)."""
    w = word(Surface(1, 0), [(1, 0), (0, 1), (1, 1)])
    for make, field in ((lambda: word_action(w, bad), "upto"),
                        (lambda: w.repeated(bad), "n"),
                        (lambda: SymplecticSpace(bad), "half_dim")):
        with pytest.raises(InputError, match=f"^{field} must be an integer, got "):
            make()
    with pytest.raises(InputError, match=f"^half_dim -1 out of range 0..{MAX_DIMENSION // 2}$"):
        SymplecticSpace(-1)
