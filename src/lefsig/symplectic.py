"""Symplectic vector spaces over Q, transvections, and monodromy words.

The first homology of a genus-g surface with b boundary components (capped
off to its closed genus g+b-1 counterpart when b > 0) carries the standard
symplectic intersection form.  A Dehn twist along a simple closed curve acts
on homology as a transvection; a factorization of a fibration's monodromy
into twists becomes a word of integer vectors, one per vanishing cycle.
Chirality -1 marks a left-handed twist, which acts by the inverse
transvection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import InputError
from .ratlinalg import (
    Matrix,
    Scalar,
    Vector,
    as_vector,
    rank,
    span_basis,
    vec_dot,
)


@dataclass(frozen=True)
class SymplecticSpace:
    """Q^dim with a fixed nondegenerate skew form given by its Gram matrix."""

    form: Matrix

    def __post_init__(self) -> None:
        f = self.form
        if not f.is_square() or f.rows % 2 != 0:
            raise InputError("symplectic form must be square of even size")
        if f.transpose() != -f:
            raise InputError("symplectic form must be skew-symmetric")
        if rank(f) != f.rows:
            raise InputError("symplectic form must be nondegenerate")

    @staticmethod
    def standard(half_dim: int) -> "SymplecticSpace":
        """Block-diagonal form with 2x2 blocks [[0,1],[-1,0]], basis a1,b1,...,aG,bG."""
        if half_dim < 0:
            raise InputError("negative dimension")
        n = 2 * half_dim
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(half_dim):
            rows[2 * i][2 * i + 1] = Fraction(1)
            rows[2 * i + 1][2 * i] = Fraction(-1)
        return SymplecticSpace(Matrix(tuple(tuple(r) for r in rows), n))

    @property
    def dim(self) -> int:
        return self.form.rows

    @property
    def half_dim(self) -> int:
        return self.form.rows // 2

    def pairing(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Fraction:
        """Q(x, y) = x^T J y."""
        return vec_dot(as_vector(x), self.form.apply(y))

    def doubled(self) -> "SymplecticSpace":
        """(V + V, Q + -Q): the ambient space of graph Lagrangians."""
        return SymplecticSpace(self.form.block_diag(-self.form))


def direct_sum_space(a: SymplecticSpace, b: SymplecticSpace) -> SymplecticSpace:
    return SymplecticSpace(a.form.block_diag(b.form))


@dataclass(frozen=True)
class Surface:
    """Orientable surface with genus g and b boundary components."""

    genus: int
    boundary: int

    def __post_init__(self) -> None:
        if self.genus < 0 or self.boundary < 0:
            raise InputError("genus and boundary count must be nonnegative")

    @property
    def half_dim(self) -> int:
        if self.boundary == 0:
            return self.genus
        return self.genus + self.boundary - 1


def effective_dimension(surface: Surface) -> int:
    """Dimension of the homology the algorithm works in: 2g, or 2(g+b-1) for b > 0.

    A bordered fiber is capped off to the closed surface of genus g+b-1; the
    signature only depends on classes there.
    """
    return 2 * surface.half_dim


@dataclass(frozen=True)
class VanishingCycle:
    """Integer homology class of a vanishing cycle plus its twist handedness."""

    homology_class: tuple[int, ...]
    chirality: int = 1

    def __post_init__(self) -> None:
        if self.chirality not in (1, -1):
            raise InputError(f"chirality must be +1 or -1, got {self.chirality}")
        if not all(isinstance(x, int) for x in self.homology_class):
            raise InputError("homology class entries must be integers")
        object.__setattr__(self, "homology_class", tuple(self.homology_class))

    @property
    def is_null_homologous(self) -> bool:
        return all(x == 0 for x in self.homology_class)

    def vector(self) -> Vector:
        return as_vector(self.homology_class)


@dataclass(frozen=True)
class MonodromyWord:
    """Ordered vanishing cycles gamma_1 .. gamma_n; the total monodromy acts as
    the product of their transvections, rightmost factor first."""

    surface: Surface
    cycles: tuple[VanishingCycle, ...]

    def __post_init__(self) -> None:
        dim = effective_dimension(self.surface)
        for i, c in enumerate(self.cycles):
            if len(c.homology_class) != dim:
                raise InputError(
                    f"cycle {i + 1}: vector has length {len(c.homology_class)}, "
                    f"expected {dim} (genus {self.surface.genus}, "
                    f"boundary {self.surface.boundary})"
                )

    def __len__(self) -> int:
        return len(self.cycles)

    @cached_property
    def space(self) -> SymplecticSpace:
        return SymplecticSpace.standard(self.surface.half_dim)

    @cached_property
    def _prefix_products(self) -> tuple[Matrix, ...]:
        """Phi_0 = Id, Phi_1, ..., Phi_n with Phi_k = T_k Phi_{k-1}, built in one pass."""
        phi = Matrix.identity(self.space.dim)
        products = [phi]
        for c in self.cycles:
            phi = transvection(self.space, c) @ phi
            products.append(phi)
        return tuple(products)

    def repeated(self, n: int) -> "MonodromyWord":
        if n < 1:
            raise InputError("repetition count must be >= 1")
        return MonodromyWord(self.surface, self.cycles * n)

    def subword(self, start: int, stop: int) -> "MonodromyWord":
        return MonodromyWord(self.surface, self.cycles[start:stop])


def word(surface: Surface, vectors: Sequence[Sequence[int]],
         chiralities: Sequence[int] | None = None) -> MonodromyWord:
    """Convenience constructor from raw integer vectors."""
    if chiralities is None:
        chiralities = [1] * len(vectors)
    if len(chiralities) != len(vectors):
        raise InputError("one chirality per cycle required")
    return MonodromyWord(
        surface,
        tuple(VanishingCycle(tuple(v), c) for v, c in zip(vectors, chiralities)),
    )


def transvection(space: SymplecticSpace, cycle: VanishingCycle) -> Matrix:
    """Homology action of the twist along `cycle`.

    Right-handed: x -> x - Q(x, gamma) gamma, i.e. Id - gamma (J gamma)^T.
    Left-handed is the inverse, Id + gamma (J gamma)^T; the two compose to
    the identity because Q(gamma, gamma) = 0.
    """
    g = cycle.vector()
    if len(g) != space.dim:
        raise InputError(f"cycle of length {len(g)} in dimension {space.dim}")
    w = space.form.apply(g)  # Q(x, g) = x . (J g)
    n = space.dim
    chi = Fraction(cycle.chirality)
    return Matrix(
        tuple(
            tuple(
                (Fraction(1) if i == j else Fraction(0)) - chi * g[i] * w[j]
                for j in range(n)
            )
            for i in range(n)
        ),
        n,
    )


def word_action(word: MonodromyWord, upto: int | None = None) -> Matrix:
    """Product T_k ... T_1 of the first k transvections (all of them by default).

    The word computes all its prefix products on first use and keeps them, so
    sweeping k over a word costs one matrix product per step in total.
    """
    k = len(word) if upto is None else upto
    if not 0 <= k <= len(word):
        raise InputError(f"prefix length {k} out of range 0..{len(word)}")
    return word._prefix_products[k]


def is_symplectic(space: SymplecticSpace, m: Matrix) -> bool:
    """True iff M^T J M = J exactly."""
    if m.rows != space.dim or m.cols != space.dim:
        return False
    return m.transpose() @ space.form @ m == space.form


@dataclass(frozen=True)
class Lagrangian:
    """Maximal isotropic subspace, stored as its canonical RREF basis."""

    space: SymplecticSpace
    basis: tuple[Vector, ...]

    @staticmethod
    def span(space: SymplecticSpace, vectors: Sequence[Sequence[Scalar]]) -> "Lagrangian":
        basis = span_basis(vectors, space.dim)
        if len(basis) != space.half_dim:
            raise InputError(
                f"spanning set has rank {len(basis)}, a Lagrangian needs {space.half_dim}"
            )
        images = [space.form.apply(v) for v in basis]
        for i, u in enumerate(basis):
            if any(vec_dot(u, jv) != 0 for jv in images[i:]):
                raise InputError("spanning set is not isotropic")
        return Lagrangian(space, basis)

    @property
    def dim(self) -> int:
        return len(self.basis)


def map_lagrangian(m: Matrix, lag: Lagrangian) -> Lagrangian:
    """Image of a Lagrangian under a symplectic map of its ambient space."""
    return Lagrangian.span(lag.space, [m.apply(v) for v in lag.basis])


def direct_sum_lagrangian(a: Lagrangian, b: Lagrangian) -> Lagrangian:
    space = direct_sum_space(a.space, b.space)
    pad_a = [tuple(v) + (Fraction(0),) * b.space.dim for v in a.basis]
    pad_b = [(Fraction(0),) * a.space.dim + tuple(v) for v in b.basis]
    return Lagrangian.span(space, pad_a + pad_b)


def graph_lagrangians(space: SymplecticSpace, m: Matrix) -> tuple[Lagrangian, Lagrangian]:
    """Graph {(x, Mx)} and conjugate graph {(Mx, x)} inside the doubled space.

    Both are Lagrangian for (V + V, Q + -Q) exactly when M is symplectic.
    """
    if not is_symplectic(space, m):
        raise InputError("graph Lagrangians need a symplectic matrix")
    doubled = space.doubled()
    n = space.dim
    # Rows [I | M^T] span the graph and are already the canonical echelon
    # basis; the conjugate graph is the graph of M^{-1} = -J M^T J.  The
    # symplecticity check above is exactly isotropy of both, so the usual
    # `span` re-validation would only repeat it.
    minv_t = ((-space.form) @ m.transpose() @ space.form).transpose()
    ident = Matrix.identity(n)
    graph = Lagrangian(
        doubled, tuple(ident.entries[i] + m.transpose().entries[i] for i in range(n)))
    conj = Lagrangian(
        doubled, tuple(ident.entries[i] + minv_t.entries[i] for i in range(n)))
    return graph, conj
