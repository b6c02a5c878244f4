"""Ternary index of Lagrangian triples and the gluing defect."""

import itertools
import random
from fractions import Fraction

import pytest

from lefsig import (
    InputError,
    InternalConsistencyError,
    Lagrangian,
    Matrix,
    SymplecticSpace,
    fiber_sum_defect,
    is_symplectic,
    local_sigma,
    local_sigma_via_maslov,
    maslov_index,
    map_lagrangian,
    meyer_cocycle,
    signature_symmetric,
)
import lefsig
from lefsig import cover, engine, maslov, symplectic
from lefsig.ratlinalg import vec_dot
from lefsig.symplectic import (
    VanishingCycle,
    direct_sum_lagrangian,
    prefix_sweep,
    transvection,
    word_action,
)

from .fixtures import (
    BLOCK_ACTION,
    DELTA_STAR,
    MATSUMOTO_PHI,
    random_lagrangian,
    random_symplectic,
    random_word,
)
from .oracles import (
    graph_triple,
    lion_vergne_index,
    reference_fiber_sum_defect,
    reference_intersect_spans,
    reference_wall_space,
    symplectic_inverse,
)

PLANE = SymplecticSpace(1)
A_LINE = Lagrangian(PLANE, [(1, 0)])
DIAG = Lagrangian(PLANE, [(1, 1)])
B_LINE = Lagrangian(PLANE, [(0, 1)])


def test_normalization():
    assert maslov_index(A_LINE, DIAG, B_LINE) == -1
    assert maslov_index(B_LINE, DIAG, A_LINE) == 1


def test_wall_space_of_normalization_triple():
    # the second triple has B ∩ (C + A) = 0, so W is empty
    for triple, reps, form, index in [
        ((A_LINE, DIAG, B_LINE), ((1, 1),), Matrix.from_rows([[-1]]), -1),
        ((A_LINE, B_LINE, A_LINE), (), Matrix.zeros(0, 0), 0),
    ]:
        assert reference_wall_space(*triple) == (reps, form)
        assert maslov_index(*triple) == index


def test_repeated_argument_vanishes():
    for triple in [(A_LINE, A_LINE, B_LINE), (A_LINE, B_LINE, B_LINE),
                   (A_LINE, B_LINE, A_LINE), (DIAG, DIAG, DIAG)]:
        assert maslov_index(*triple) == 0


def test_zero_dimensional_space():
    pt = SymplecticSpace(0)
    empty = Lagrangian(pt, [])
    assert maslov_index(empty, empty, empty) == 0


def test_mixed_ambient_spaces_rejected():
    other = Lagrangian(SymplecticSpace(2), [(1, 0, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(InputError, match="ambient"):
        maslov_index(A_LINE, DIAG, other)


def test_antisymmetry_under_all_permutations():
    rng = random.Random(501)
    for _ in range(15):
        space = SymplecticSpace(rng.choice([1, 2]))
        lags = [random_lagrangian(rng, space) for _ in range(3)]
        base = maslov_index(*lags)
        for perm in itertools.permutations(range(3)):
            sign = 1 if perm in [(0, 1, 2), (1, 2, 0), (2, 0, 1)] else -1
            assert maslov_index(*(lags[i] for i in perm)) == sign * base


def test_symplectic_invariance():
    rng = random.Random(2024)
    space = SymplecticSpace(2)
    for _ in range(5):
        lags = [random_lagrangian(rng, space) for _ in range(3)]
        base = maslov_index(*lags)
        m = random_symplectic(rng, space)
        moved = [map_lagrangian(m, lag) for lag in lags]
        assert maslov_index(*moved) == base


def test_direct_sum_additivity():
    rng = random.Random(77)
    for _ in range(8):
        sa = SymplecticSpace(1)
        sb = SymplecticSpace(rng.choice([1, 2]))
        ta = [random_lagrangian(rng, sa) for _ in range(3)]
        tb = [random_lagrangian(rng, sb) for _ in range(3)]
        combined = [direct_sum_lagrangian(x, y) for x, y in zip(ta, tb)]
        assert maslov_index(*combined) == maslov_index(*ta) + maslov_index(*tb)


def test_index_bounded_by_half_dimension():
    rng = random.Random(303)
    for _ in range(25):
        space = SymplecticSpace(rng.choice([1, 2, 3]))
        lags = [random_lagrangian(rng, space) for _ in range(3)]
        assert abs(maslov_index(*lags)) <= space.half_dim


def test_defect_separating_twist_with_itself():
    assert fiber_sum_defect(DELTA_STAR, DELTA_STAR) == 1


def test_defect_vanishes_with_identity():
    ident = Matrix.identity(4)
    assert fiber_sum_defect(ident, MATSUMOTO_PHI) == 0
    assert fiber_sum_defect(MATSUMOTO_PHI, ident) == 0
    assert fiber_sum_defect(ident, ident) == 0


def test_defect_vanishes_for_inverse_pairs():
    rng = random.Random(7)
    for _ in range(10):
        space = SymplecticSpace(rng.choice([1, 2]))
        m = random_symplectic(rng, space)
        assert fiber_sum_defect(m, symplectic_inverse(space, m)) == 0
    assert fiber_sum_defect(BLOCK_ACTION, symplectic_inverse(PLANE, BLOCK_ACTION)) == 0


def test_meyer_is_negated_defect():
    rng = random.Random(19)
    space = SymplecticSpace(2)
    for _ in range(6):
        g = random_symplectic(rng, space)
        h = random_symplectic(rng, space)
        assert meyer_cocycle(g, h) == -fiber_sum_defect(g, h)


def test_meyer_cocycle_identity():
    # c(g, h) + c(gh, k) == c(g, hk) + c(h, k)
    rng = random.Random(4242)
    for _ in range(10):
        space = SymplecticSpace(rng.choice([1, 2]))
        g = random_symplectic(rng, space)
        h = random_symplectic(rng, space)
        k = random_symplectic(rng, space)
        lhs = meyer_cocycle(g, h) + meyer_cocycle(g @ h, k)
        rhs = meyer_cocycle(g, h @ k) + meyer_cocycle(h, k)
        assert lhs == rhs


def test_defect_requires_symplectic_inputs():
    with pytest.raises(InputError, match="phi_minus"):
        fiber_sum_defect(Matrix.from_rows([[2, 0], [0, 2]]), Matrix.identity(2))
    with pytest.raises(InputError, match="phi_plus"):
        fiber_sum_defect(Matrix.identity(2), Matrix.from_rows([[1, 1], [1, 1]]))


def test_rederived_rules_match_reference():
    """Kashiwara's index equals the signature of Wall's form, built the long
    way: a kernel-and-recombination intersection and the greedy complement."""
    rng = random.Random(1969)

    # Triples of sums of plane lines moved by one symplectic map: blocks where
    # B shares its line with A or C put (B∩C) + (B∩A) != 0, blocks with three
    # distinct lines add to W.
    lines = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]
    triples = []
    for _ in range(30):
        space = SymplecticSpace(rng.choice([2, 3]))
        g = random_symplectic(rng, space)

        def block_lagrangian():
            vectors = []
            for i in range(space.half_dim):
                v = [0] * space.dim
                v[2 * i: 2 * i + 2] = rng.choice(lines)
                vectors.append([vec_dot(row, v) for row in g.entries])
            return Lagrangian(space, vectors)

        a, b, c = block_lagrangian(), block_lagrangian(), block_lagrangian()
        triples += [(a, b, c), (c, b, a), (a, b, a), (a, b, b)]

    # The graph triples of the oracle defect at each step of a word:
    # graph(T_k), the diagonal and graph(Phi_{k-1}^{-1}).
    graph_triples = 0
    for _ in range(12):
        w = random_word(rng, rng.randint(1, 3), 5, chiral_only=False)
        for k, cycle in enumerate(w.cycles, start=1):
            if cycle.is_null_homologous:
                continue
            triples.append(graph_triple(w.space, transvection(cycle),
                                        word_action(w, k - 1)))
            graph_triples += 1
    assert graph_triples >= 30

    both_nonzero = 0
    for x, y, z in triples:
        reps, form = reference_wall_space(x, y, z)
        assert maslov_index(x, y, z) == signature_symmetric(form)
        dim = x.space.dim
        radical = (reference_intersect_spans(y.basis, x.basis, dim)
                   + reference_intersect_spans(y.basis, z.basis, dim))
        both_nonzero += bool(reps) and bool(radical)
    assert both_nonzero >= 10


def test_index_bound_self_check_fires(monkeypatch):
    """A signature of Kashiwara's form past the half dimension means the form
    was built wrong, and the runtime check raises instead of returning it."""
    monkeypatch.setattr(maslov, "signature_symmetric", lambda m: -1)
    assert maslov_index(A_LINE, A_LINE, A_LINE) == 1
    monkeypatch.setattr(maslov, "signature_symmetric", lambda m: 2)
    with pytest.raises(InternalConsistencyError, match="half dimension"):
        maslov_index(A_LINE, DIAG, B_LINE)


def test_maslov_form_self_check_fires(monkeypatch):
    """A domain that is not Kashiwara's space gives an asymmetric form, and
    the runtime check says so."""
    monkeypatch.setattr(maslov, "_int_kernel",
                        lambda rows, cols: [list(e) for e in Matrix.identity(cols).entries])
    with pytest.raises(InternalConsistencyError, match="Maslov form"):
        maslov_index(A_LINE, DIAG, B_LINE)


def _lagrangians_with_repeats(rng, space, count):
    """`count` random Lagrangians; after the first, each is an earlier one
    with probability 0.15."""
    lags = []
    for _ in range(count):
        lags.append(rng.choice(lags) if lags and rng.random() < 0.15
                    else random_lagrangian(rng, space))
    return lags


def test_cocycle_identity():
    """tau(A,B,C) - tau(A,B,D) + tau(A,C,D) - tau(B,C,D) = 0 on seeded
    quadruples at genus 1-3, repeated Lagrangians included."""
    rng = random.Random(1994)
    repeats = 0
    for _ in range(200):
        space = SymplecticSpace(rng.randint(1, 3))
        a, b, c, d = quad = _lagrangians_with_repeats(rng, space, 4)
        repeats += len(set(quad)) < 4
        assert (maslov_index(a, b, c) - maslov_index(a, b, d)
                + maslov_index(a, c, d) - maslov_index(b, c, d)) == 0
    assert repeats >= 40


def test_parity_law():
    """tau = n + dim(A∩B) + dim(B∩C) + dim(C∩A) (mod 2), with the
    intersections from the oracle, on seeded triples at genus 1-3."""
    rng = random.Random(1980)
    odd = meeting = 0
    for _ in range(200):
        space = SymplecticSpace(rng.randint(1, 3))
        a, b, c = _lagrangians_with_repeats(rng, space, 3)
        meets = sum(len(reference_intersect_spans(x.basis, y.basis, space.dim))
                    for x, y in ((a, b), (b, c), (c, a)))
        tau = maslov_index(a, b, c)
        assert (tau - space.half_dim - meets) % 2 == 0
        odd += tau % 2
        meeting += meets > 0
    assert odd >= 30 and meeting >= 50


def _fixing_first_vector(rng: random.Random, space: SymplecticSpace) -> Matrix:
    """A product of twists along cycles with no b_1 part; each twist fixes a_1."""
    cycles = []
    for _ in range(rng.randint(1, 4)):
        g = [rng.randint(-2, 2) for _ in range(space.dim)]
        g[1] = 0
        g[0] = g[0] if any(g) else 1
        cycles.append(VanishingCycle(tuple(g), rng.choice((1, -1))))
    *_, (phi, _) = prefix_sweep(space, cycles)
    return phi


def test_meyer_form_matches_graph_triple_oracle():
    """Meyer's form on V against Wall's index of graph Lagrangians in the
    doubled space, identity factors included."""
    rng = random.Random(1973)
    for _ in range(40):
        genus = rng.randint(0, 4)
        space = SymplecticSpace(genus)

        def factor():
            if genus == 0 or rng.random() < 0.15:
                return Matrix.identity(space.dim)
            return random_symplectic(rng, space)

        a, b = factor(), factor()
        assert fiber_sum_defect(a, b) == reference_fiber_sum_defect(space, a, b)
    # Fraction entries: conjugates by diag(2, 1/2, ...), symplectic for J.
    # Singular Id - A: products of twists along cycles with no b_1 part,
    # which all fix a_1.
    singular = 0
    for _ in range(15):
        genus = rng.randint(1, 2)
        space = SymplecticSpace(genus)
        halves = [Fraction(2) if i % 2 == 0 else Fraction(1, 2) for i in range(space.dim)]
        diag = Matrix([[x if i == j else 0 for j in range(space.dim)]
                       for i, x in enumerate(halves)], space.dim)
        inverse = Matrix([[1 / x if i == j else 0 for j in range(space.dim)]
                          for i, x in enumerate(halves)], space.dim)
        a, b = (diag @ random_symplectic(rng, space) @ inverse for _ in range(2))
        assert any(type(x) is Fraction for row in a.entries for x in row)
        assert fiber_sum_defect(a, b) == reference_fiber_sum_defect(space, a, b)
        a, b = (_fixing_first_vector(rng, space) for _ in range(2))
        fixed = [row[0] for row in (Matrix.identity(space.dim) - a).entries]
        singular += not any(fixed)
        assert fiber_sum_defect(a, b) == reference_fiber_sum_defect(space, a, b)
        assert fiber_sum_defect(b, diag @ a @ inverse) == \
            reference_fiber_sum_defect(space, b, diag @ a @ inverse)
    assert singular == 15


def test_meyer_form_self_check_fires(monkeypatch):
    """A domain that is not the kernel of [(Id - A) | (B - Id)] gives an
    asymmetric form, and the runtime check says so."""
    monkeypatch.setattr(maslov, "_int_kernel",
                        lambda rows, cols: [list(e) for e in Matrix.identity(cols).entries])
    with pytest.raises(InternalConsistencyError, match="Meyer's form"):
        fiber_sum_defect(MATSUMOTO_PHI, DELTA_STAR)


def test_second_route_makes_no_symplectic_checks(monkeypatch):
    """`local_sigma_via_maslov` glues a transvection to a prefix action, both
    symplectic by construction, and checks neither; `fiber_sum_defect` and
    `meyer_cocycle` still check both of their inputs."""
    calls = []

    def counting(m):
        calls.append(m)
        return is_symplectic(m)

    for module in (lefsig, symplectic, maslov, engine, cover):
        monkeypatch.setattr(module, "is_symplectic", counting, raising=False)
    w = random_word(random.Random(1973), 3, 12, chiral_only=False)
    routes = [(local_sigma(w, k).sigma, local_sigma_via_maslov(w, k))
              for k in range(1, len(w) + 1)]
    assert calls == []
    assert all(direct == second for direct, second in routes)
    bad, ident = Matrix.from_rows([[2, 0], [0, 2]]), Matrix.identity(2)
    for checked in (fiber_sum_defect, meyer_cocycle):
        with pytest.raises(InputError, match="phi_minus"):
            checked(bad, ident)
        with pytest.raises(InputError, match="phi_plus"):
            checked(ident, bad)
    assert len(calls) == 6


def test_index_matches_lion_vergne_oracle():
    """The form on Kashiwara's space against the 3n x 3n Lion-Vergne form:
    seeded triples at genus 0-4 with repeated Lagrangians, the graph triples
    of random words, and one genus-20 triple."""
    rng = random.Random(1978)
    point = SymplecticSpace(0)
    triples = [(Lagrangian(point, []),) * 3]
    for _ in range(1000):
        space = SymplecticSpace(rng.randint(1, 4))
        triples.append(tuple(_lagrangians_with_repeats(rng, space, 3)))
    for _ in range(15):
        w = random_word(rng, rng.randint(1, 3), 8, chiral_only=False)
        triples += [graph_triple(w.space, transvection(cycle), word_action(w, k - 1))
                    for k, cycle in enumerate(w.cycles, start=1)
                    if not cycle.is_null_homologous]
    # the a-span, the b-span and the diagonal of genus 20, each moved by a random map
    space = SymplecticSpace(20)
    spans = [[[int(j - 2 * i in offsets) for j in range(space.dim)] for i in range(20)]
             for offsets in ((0,), (1,), (0, 1))]
    triples.append(tuple(map_lagrangian(random_symplectic(rng, space), Lagrangian(space, v))
                         for v in spans))
    indices = [maslov_index(*triple) for triple in triples]
    assert indices == [lion_vergne_index(*triple) for triple in triples]
    assert len(triples) >= 1050
    assert sum(len(set(t)) < 3 for t in triples) >= 250
    assert len(set(indices)) >= 5 and indices[-1] != 0
