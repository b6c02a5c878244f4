"""Symplectic vector spaces over Q, transvections, and monodromy words.

The first homology of a genus-g surface with b boundary components (capped
off to its closed genus g+b-1 counterpart when b > 0) carries the standard
symplectic intersection form: in the basis a1, b1, ..., ah, bh its Gram
matrix J has 2x2 blocks [[0, 1], [-1, 0]] down the diagonal.  That is the
only form here, so a `SymplecticSpace` is its half dimension h, and the
space of a matrix or a cycle is its size: `_space_of` is the one check of a
caller's monodromy matrix.  `gram` and `pairing` check a caller's vectors;
the library's own rows go to `_gram` unchecked.  The pairing, the Gram
blocks and the sweep apply J, one swap-and-negate of each pair,
(J v)_2i = v_2i+1 and (J v)_2i+1 = -v_2i (`_apply_form`); the dense `form`
is built only for a caller that reads it.  A Dehn twist along a simple
closed curve acts on homology as a transvection; a factorization of a
fibration's monodromy into twists becomes a word of integer vectors, one per
vanishing cycle.  Chirality -1 marks a left-handed twist, which acts by the
inverse transvection.
Every twist action, single or a word's prefixes, comes from one exact
left-to-right sweep, `prefix_sweep`, which yields the step state
(Phi_0, I_0), (Phi_1, I_1), ... one pair at a time: the prefix action by a
rank-one update, and the rows I_k a step eliminates by echelon reduction of
the cycles.  A word keeps the pairs as one tuple only for its random-access
callers (`word_action`, `engine.local_sigma`).
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from math import gcd
from operator import mul, neg

from ._record import _Record, _setattr
from .errors import InputError, _require_range, _show
from .ratlinalg import (
    Matrix,
    Rational,
    Scalar,
    Vector,
    _as_tuple,
    _eliminate,
    _int_rref,
    _product,
    as_vector,
    clear_denominators,
)

# Largest fiber dimension 2h accepted.  Prefix actions are dense d x d
# matrices of exact rationals, checked against it before allocation.
MAX_DIMENSION = 1000


class SymplecticSpace(_Record):
    """Q^(2h) with the standard form J, 2x2 blocks [[0, 1], [-1, 0]] in the
    basis a1, b1, ..., ah, bh: the space is its half dimension h."""

    _fields = ("half_dim",)

    def __init__(self, half_dim: int) -> None:
        _require_range("half_dim", half_dim, 0, MAX_DIMENSION // 2)
        _setattr(self, "half_dim", half_dim)

    @property
    def dim(self) -> int:
        return 2 * self.half_dim

    @cached_property
    def form(self) -> Matrix:
        """J as a dense `Matrix`, built on first read: the steps only apply it."""
        n = self.dim
        rows = [[0] * n for _ in range(n)]
        for i in range(0, n, 2):
            rows[i][i + 1], rows[i + 1][i] = 1, -1
        return Matrix._exact(tuple(map(tuple, rows)), n)

    def gram(self, us: Sequence[Sequence[Rational]],
             vs: Sequence[Sequence[Rational]]) -> tuple[Vector, ...]:
        """Rows (Q(u, v) for v in vs) for u in us (`_gram`), each container
        and each vector in it read by the vector rule and of length dim."""
        us, vs = tuple(map(_as_tuple, _as_tuple(us))), tuple(map(_as_tuple, _as_tuple(vs)))
        if bad := {*map(len, us), *map(len, vs)} - {self.dim}:
            raise InputError(f"gram of a vector of length {min(bad)} in dimension {self.dim}")
        return _gram(us, vs)

    def pairing(self, x: Sequence[Rational], y: Sequence[Rational]) -> Rational:
        """Q(x, y) = x^T J y, one sum of products of x and J y."""
        x, y = _as_tuple(x), _as_tuple(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise InputError(f"pairing of lengths {len(x)} and {len(y)} in dimension {self.dim}")
        return sum(map(mul, x, _apply_form(y)))


def _gram(us: Sequence[Sequence[Rational]],
          vs: Sequence[Sequence[Rational]]) -> tuple[Vector, ...]:
    """`gram` unchecked, for rows the library built, of one even length: J v
    once per v, then each entry one C-level sum of products of u and J v."""
    jvs = [_apply_form(v) for v in vs]
    return tuple(tuple(sum(map(mul, u, w)) for w in jvs) for u in us)


def _apply_form(v: Sequence[Rational]) -> list[Rational]:
    """J v for the standard J, by slices: (J v)_2i = v_2i+1, (J v)_2i+1 = -v_2i."""
    jv = list(v)
    jv[0::2] = v[1::2]
    jv[1::2] = map(neg, v[0::2])
    return jv


class Surface(_Record):
    """Orientable surface with genus g and b boundary components."""

    _fields = ("genus", "boundary")

    def __init__(self, genus: int, boundary: int) -> None:
        _require_range("genus", genus, 0)
        _require_range("boundary", boundary, 0)
        _setattr(self, "genus", genus)
        _setattr(self, "boundary", boundary)
        if 2 * self.half_dim > MAX_DIMENSION:
            raise InputError(f"genus and boundary give a fiber dimension above {MAX_DIMENSION}")

    @property
    def half_dim(self) -> int:
        """g, or g+b-1 for b > 0: a bordered fiber is capped off to the closed
        genus g+b-1 surface, and the signature only depends on classes there."""
        if self.boundary == 0:
            return self.genus
        return self.genus + self.boundary - 1


class VanishingCycle(_Record):
    """Integer homology class of a vanishing cycle plus its twist handedness."""

    _fields = ("homology_class", "chirality")

    def __init__(self, homology_class: Sequence[int], chirality: int = 1) -> None:
        if type(chirality) is not int or chirality not in (1, -1):  # True, 1.0 pass `in`
            raise InputError(f"chirality must be +1 or -1, got {_show(chirality)}")
        homology_class = _as_tuple(homology_class)  # before the check reads a one-shot iterator
        if bad := [x for x in homology_class if type(x) is not int]:
            raise InputError(f"vector entries must be integers, got {_show(bad[0])}")
        _setattr(self, "homology_class", homology_class)
        _setattr(self, "chirality", chirality)

    @property
    def is_null_homologous(self) -> bool:
        return not any(self.homology_class)


class MonodromyWord(_Record):
    """Ordered vanishing cycles gamma_1 .. gamma_n; the total monodromy acts as
    the product of their transvections, rightmost factor first."""

    _fields = ("surface", "cycles")

    def __init__(self, surface: Surface, cycles: Iterable[VanishingCycle]) -> None:
        cycles = _as_tuple(cycles)  # a list would not hash; an iterator is read once
        dim = 2 * surface.half_dim
        for i, c in enumerate(cycles, start=1):
            if not isinstance(c, VanishingCycle):
                raise InputError(f"cycle {i}: expected a VanishingCycle, got {_show(c)}")
            if len(c.homology_class) != dim:
                raise InputError(f"cycle {i}: vector has length {len(c.homology_class)}, expected "
                                 f"{dim} (genus {surface.genus}, boundary {surface.boundary})")
        _setattr(self, "surface", surface)
        _setattr(self, "cycles", cycles)

    def __len__(self) -> int:
        return len(self.cycles)

    @cached_property
    def space(self) -> SymplecticSpace:
        return SymplecticSpace(self.surface.half_dim)

    @cached_property
    def _sweep(self) -> tuple[tuple[Matrix, tuple[int, ...]], ...]:
        """Every pair of `prefix_sweep`, kept for the random-access callers."""
        return tuple(prefix_sweep(self.space, self.cycles))

    def repeated(self, n: int) -> "MonodromyWord":
        _require_range("n", n, 1, sys.maxsize)
        return MonodromyWord(self.surface, self.cycles * n)


def word(surface: Surface, vectors: Sequence[Sequence[int]],
         chiralities: Sequence[int] | None = None) -> MonodromyWord:
    """Convenience constructor from raw integer vectors."""
    vectors = _as_tuple(vectors)
    chiralities = (1,) * len(vectors) if chiralities is None else _as_tuple(chiralities)
    if len(chiralities) != len(vectors):
        raise InputError("one chirality per cycle required")
    return MonodromyWord(surface, map(VanishingCycle, vectors, chiralities))


def prefix_sweep(space: SymplecticSpace,
                 cycles: Iterable[VanishingCycle]) -> Iterator[tuple[Matrix, tuple[int, ...]]]:
    """(Phi_0, I_0) = (Id, ()), (Phi_1, I_1), ..., (Phi_n, I_n), one at a time:
    Phi_k = T_k Phi_{k-1}, and I_k the sorted pivot coordinates of an echelon
    basis of gamma_1 .. gamma_k, on which projection is injective on their span.

    T_k Phi = Phi - c g ((J g)^T Phi) is a rank-one update of the rows of the
    previous product where g_i != 0; the other rows are shared with it.  J g
    swaps and negates entries of the int vector g, so every entry stays an
    int and the products are built without re-checking their entries.

    Each cycle is `_eliminate`d against the kept basis rows, lowest pivot
    first (a row is zero left of its pivot), which zeroes it at every pivot;
    a nonzero remainder joins the basis with its first nonzero coordinate as
    pivot.  Once I_k holds all dim coordinates the basis stops growing.  A
    set that did not grow is the previous prefix's.
    """
    n = space.dim
    phi = Matrix.identity(n)
    basis: dict[int, list[int]] = {}
    pivots: tuple[int, ...] = ()
    yield phi, pivots
    for c in cycles:
        g = c.homology_class
        rows = list(phi.entries)
        r = [0] * n  # (J g)^T Phi, summed over the rows where (J g)_i != 0
        for wi, phi_i in zip(_apply_form(g), rows):
            if wi:
                r = [a + wi * b for a, b in zip(r, phi_i)]
        for i, gi in enumerate(g):
            if gi:
                s = c.chirality * gi
                rows[i] = tuple([a - s * b for a, b in zip(rows[i], r)])
        phi = Matrix._exact(tuple(rows), n)
        if len(pivots) < n:
            rest = list(g)
            for p in pivots:
                if f := rest[p]:
                    top = basis[p]
                    rest = _eliminate(rest, top, top[p], f)
            for p, x in enumerate(rest):
                if x:
                    basis[p] = rest
                    pivots = tuple(sorted((*pivots, p)))
                    break
        yield phi, pivots


def transvection(cycle: VanishingCycle) -> Matrix:
    """Homology action of the twist along `cycle`, in the space of its length.

    Right-handed: x -> x - Q(x, gamma) gamma, i.e. Id - gamma (J gamma)^T.
    Left-handed is the inverse, Id + gamma (J gamma)^T; the two compose to
    the identity because Q(gamma, gamma) = 0.  It is Phi_1 of the one-step
    `prefix_sweep`.
    """
    d = len(cycle.homology_class)
    if d % 2:
        raise InputError(f"cycle has odd length {d}")
    _, (phi_1, _) = prefix_sweep(SymplecticSpace(d // 2), (cycle,))
    return phi_1


def word_action(word: MonodromyWord, upto: int | None = None) -> Matrix:
    """Product T_k ... T_1 of the first k transvections (all of them by default).

    It is Phi_k of the word's one kept sweep, the pairs (Phi_k, I_k) of
    `prefix_sweep` built in a single forward pass once any of them is asked
    for: one integer rank-one update per cycle, O(dim^2) work.  The engine's
    step stream, which `engine.signature` and the CLI consume, runs its own
    sweep and leaves this cache unbuilt.
    """
    k = len(word) if upto is None else upto
    _require_range("upto", k, 0, len(word))
    return word._sweep[k][0]


def is_symplectic(m: Matrix) -> bool:
    """True iff M is square of even size 2h and M^T J M, the `gram` matrix of
    its columns, is J exactly; a size past the fiber ceiling is an `InputError`."""
    if not m.is_square() or m.rows % 2:
        return False
    space = SymplecticSpace(m.rows // 2)
    columns = m.transpose().entries
    return _gram(columns, columns) == space.form.entries


def _space_of(m: Matrix, name: str) -> SymplecticSpace:
    """The space of a caller's monodromy matrix, read off its size 2h; a matrix
    that `is_symplectic` rejects is an `InputError` naming the argument."""
    if not is_symplectic(m):
        raise InputError(f"{name} ({m.rows}x{m.cols}) is not symplectic")
    return SymplecticSpace(m.rows // 2)


class Lagrangian(_Record):
    """Maximal isotropic subspace, the span of `basis`: any spanning set of
    rational vectors (ints, Fractions or "p/q" strings, tuples or lists).
    It is stored as its canonical basis: the pivot rows of `_int_rref`, each
    divided by its content and signed by its pivot, which are the RREF rows
    with their denominators cleared, primitive with a positive pivot.  Equal
    subspaces get equal bases and hashes.  Positive row scales keep isotropy
    and, as a congruence, the signature of any form on the rows.  The vector
    lengths, the rank half_dim and isotropy are checked, so every Lagrangian
    is canonical and full rank."""

    _fields = ("space", "basis")

    def __init__(self, space: SymplecticSpace, basis: Iterable[Sequence[Scalar]]) -> None:
        rows = [clear_denominators(as_vector(v))[1] for v in _as_tuple(basis)]
        if bad := [r for r in rows if len(r) != space.dim]:
            raise InputError(f"vector of length {len(bad[0])} in ambient dimension {space.dim}")
        basis = tuple(tuple(x // g for x in r) for r, g in
                      ((r, gcd(*r) if r[c] > 0 else -gcd(*r)) for r, c in zip(*_int_rref(rows))))
        if len(basis) != space.half_dim:
            raise InputError(
                f"spanning set has rank {len(basis)}, a Lagrangian needs {space.half_dim}"
            )
        if any(map(any, _gram(basis, basis))):
            raise InputError("spanning set is not isotropic")
        _setattr(self, "space", space)
        _setattr(self, "basis", basis)


def map_lagrangian(m: Matrix, lag: Lagrangian) -> Lagrangian:
    """Image of a Lagrangian under a symplectic map of its ambient space: the
    span of the rows M v, each entry one row of M against v, by the product
    of `Matrix @`, checked and made canonical by the constructor."""
    if m.rows != lag.space.dim or m.cols != lag.space.dim:
        raise InputError(f"{m.rows}x{m.cols} map in ambient dimension {lag.space.dim}")
    return Lagrangian(lag.space, _product(lag.basis, m.entries))


def direct_sum_lagrangian(a: Lagrangian, b: Lagrangian) -> Lagrangian:
    # the block sum of two standard forms is the standard form
    space = SymplecticSpace(a.space.half_dim + b.space.half_dim)
    pad_a = [v + (0,) * b.space.dim for v in a.basis]
    pad_b = [(0,) * a.space.dim + v for v in b.basis]
    return Lagrangian(space, pad_a + pad_b)
