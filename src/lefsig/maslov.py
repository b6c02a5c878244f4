"""Ternary Maslov index of Lagrangian triples and the fiber-sum defect.

For Lagrangians A, B, C of a symplectic space (V, Q) the index tau(A, B, C)
is the signature of a symmetric form Psi on

    W = B ∩ (C + A) / ((B ∩ C) + (B ∩ A)).

Given b in B ∩ (C + A), write a' + b + c' = 0 with a' in A, c' in C; then
Psi(b1, b2) = Q(b1, c'2).  The subspace (B ∩ C) + (B ∩ A) lies in the radical
of Psi, the induced form on the quotient is symmetric and nonsingular, and
its signature is the index.  Everything is computed exactly over Q with
deterministic pivot choices, and the guaranteed properties (symmetry, radical
containment, nonsingularity) are asserted at runtime rather than trusted.

Everything comes from kernels.  With the bases of A, B, C as the rows of
matrices A, B, C, let K be the set of all (s, t, u) with sB + tC + uA = 0.
K's RREF basis comes out of one elimination: take the kernel basis of the
matrix with the columns of [B | C | A] in reverse order, and read every
vector and the list itself backwards.  Each vector then has a leading 1 at
its free column, zeros at the other free columns and entries only at later
pivot columns, which is the (unique) RREF of K.
The rows of the RREF of K that pivot in the s-block have RREF s-parts S, and
because B is stored in RREF, the rows d_0 .. d_{k-1} of D = S B are the
canonical (RREF) basis of B ∩ (C + A).  The same rows split each d_i as
-d_i = c'_i + a'_i with c'_i = t_i C, and with the c'_i as the rows of C',
Psi is the product D J C'^T.  Psi does not depend on which split is read:
two splits of d differ by some x in C ∩ A, and Q(d, x) = -Q(a', x) - Q(c', x)
vanishes because A and C are isotropic.  U = (B ∩ C) + (B ∩ A) is spanned by
the vectors sB for the s-parts of the kernels of sB + tC = 0 and sB + uA = 0.
Because S is reduced, the coordinates of such a vector in the d_i are the
entries of s at S's pivots, so U's coordinates are read there and one
recombination checks them.  In these coordinates the radical complement is
chosen by one rule: d_i is a representative exactly when e_i is not in
U + span(e_0 .. e_{i-1}), which is exactly when column i is not a pivot of
the RREF of U's coordinate vectors read right to left.

Normalization: in the plane with Q((x1,x2),(y1,y2)) = x1 y2 - x2 y1,
tau(span(1,0), span(1,1), span(0,1)) = -1.

The geometric use: gluing two fibrations over half-disks along a fiber costs
a signature defect, and Meyer's cocycle is its negative.  With boundary
monodromies A = phi_minus and B = phi_plus the defect is the signature of
the form Meyer defines on pairs of vectors of V (W. Meyer, "Die Signatur von
Flächenbündeln", Math. Ann. 201 (1973)):

    F((x1, y1), (x2, y2)) = Q(x1 + y1, (Id - B) y2)

on {(x, y) : (A^{-1} - Id) x + (B - Id) y = 0}.  Substituting x = A x' removes
A^{-1}: the domain becomes the kernel of [(Id - A) | (B - Id)], and the form
Q(A x1' + y1, (Id - B) y2).  It equals tau(graph A, diagonal, graph B^{-1})
in (V + V, Q + -Q), which the tests hold it to.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InternalConsistencyError
from .ratlinalg import (
    Matrix,
    Vector,
    clear_denominators,
    kernel_basis,
    rank,
    signature_symmetric,
    span_basis,
)
from .symplectic import Lagrangian, SymplecticSpace, is_symplectic


@dataclass(frozen=True)
class WallSpace:
    """The correction space W of a Lagrangian triple, made concrete.

    `representatives` are ambient vectors whose cosets form a basis of W;
    `form_matrix` is Psi evaluated on them.  Its signature is the index.
    """

    ambient: SymplecticSpace
    representatives: tuple[Vector, ...]
    form_matrix: Matrix


def _same_space(a: Lagrangian, b: Lagrangian, c: Lagrangian) -> SymplecticSpace:
    if a.space != b.space or b.space != c.space:
        raise InputError("Lagrangian triple must share one ambient space")
    return a.space


def wall_space(a: Lagrangian, b: Lagrangian, c: Lagrangian) -> WallSpace:
    """Construct W and the matrix of Psi for a Lagrangian triple."""
    space = _same_space(a, b, c)
    dim = space.dim
    p, q = len(b.basis), len(c.basis)
    b_m, c_m, a_m = (Matrix(x.basis, dim) for x in (b, c, a))

    # The RREF rows (s, t, u) of the kernel of sB + tC + uA = 0 that pivot in
    # the s-block give circle = S B, its splits and Psi; that RREF is the kernel
    # of the column-reversed stack read right to left (module docstring).
    stacked = b.basis + c.basis + a.basis
    kernel = [x[::-1] for x in kernel_basis(Matrix.from_columns(stacked[::-1], rows=dim))[::-1]]
    rows = [row for row in kernel if row.index(1) < p]
    k = len(rows)
    s_m = Matrix(tuple(row[:p] for row in rows), p)
    circle_m = s_m @ b_m
    c_parts = Matrix(tuple(row[p:p + q] for row in rows), q) @ c_m
    a_parts = Matrix(tuple(row[p + q:] for row in rows), len(a.basis)) @ a_m
    if circle_m + c_parts + a_parts != Matrix.zeros(k, dim):
        raise InternalConsistencyError("membership in C + A failed during split")
    psi = circle_m @ space.form @ c_parts.transpose()
    if psi != psi.transpose():
        raise InternalConsistencyError("Psi did not come out symmetric")

    # U = (B ∩ C) + (B ∩ A) in B-coordinates: the s-parts of the kernels of
    # sB + tC = 0 and sB + uA = 0.  Their coordinates in the `circle` basis
    # sit at S's pivots.  U must actually be recombined from them, and must
    # annihilate Psi.
    pivots = [row.index(1) for row in rows]
    u = tuple(x[:p] for other in (c, a)
              for x in kernel_basis(Matrix.from_columns(b.basis + other.basis, rows=dim)))
    u_coords = Matrix(tuple(tuple(x[i] for i in pivots) for x in u), k)
    if (u_coords @ s_m).entries != u:
        raise InternalConsistencyError("radical summand escaped B ∩ (C + A)")
    if any(x != 0 for row in (u_coords @ psi).entries for x in row):
        raise InternalConsistencyError("(B∩C) + (B∩A) is not in the radical of Psi")

    # Complement rule (see the module docstring); RREF rows lead with 1.
    reversed_u = span_basis([x[::-1] for x in u_coords.entries], k)
    radical_pivots = {k - 1 - row.index(1) for row in reversed_u}
    chosen = [i for i in range(k) if i not in radical_pivots]
    if len(chosen) != k - len(reversed_u):
        raise InternalConsistencyError("complement of the radical has wrong dimension")

    reps = tuple(circle_m.entries[i] for i in chosen)
    induced = Matrix(
        tuple(tuple(psi.at(i, j) for j in chosen) for i in chosen),
        len(chosen),
    )
    if induced.rows > 0 and rank(induced) != induced.rows:
        raise InternalConsistencyError("induced form on W is singular")
    return WallSpace(space, reps, induced)


def maslov_index(a: Lagrangian, b: Lagrangian, c: Lagrangian) -> int:
    """Signature of Psi on W.  Zero for the zero-dimensional ambient space."""
    return signature_symmetric(wall_space(a, b, c).form_matrix)


def fiber_sum_defect(space: SymplecticSpace, phi_minus: Matrix, phi_plus: Matrix) -> int:
    """Signature defect of gluing fibrations with boundary monodromies
    phi_minus (later piece) and phi_plus (earlier piece), as Meyer's form
    (module docstring).  The glued total monodromy is phi_minus @ phi_plus.
    """
    for name, m in (("phi_minus", phi_minus), ("phi_plus", phi_plus)):
        if not is_symplectic(space, m):
            raise InputError(f"{name} is not symplectic for this space")
    # rows (x, y) of ker[(Id - A) | (B - Id)], made primitive int rows by positive
    # scales (a congruence, which keeps the signature); F = Q(A x1 + y1, (Id - B) y2)
    d = space.dim
    ident = Matrix.identity(d)
    stacked = zip((ident - phi_minus).entries, (phi_plus - ident).entries)
    kernel = [clear_denominators(v)[1]
              for v in kernel_basis(Matrix(tuple(r + s for r, s in stacked), 2 * d))]
    x = Matrix(tuple(v[:d] for v in kernel), d)
    y = Matrix(tuple(v[d:] for v in kernel), d)
    form = (x @ phi_minus.transpose() + y) @ space.form @ ((ident - phi_plus) @ y.transpose())
    if form != form.transpose():
        raise InternalConsistencyError("Meyer's form did not come out symmetric")
    return signature_symmetric(form)


def meyer_cocycle(space: SymplecticSpace, m1: Matrix, m2: Matrix) -> int:
    """Meyer's 2-cocycle on the symplectic group: minus the fiber-sum defect."""
    return -fiber_sum_defect(space, m1, m2)
