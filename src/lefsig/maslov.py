"""Ternary Maslov index of Lagrangian triples and the fiber-sum defect.

For Lagrangians A, B, C of a symplectic space (V, Q) of dimension 2n, the
index is read from Kashiwara's form on the direct sum A + B + C,

    K((a1, b1, c1), (a2, b2, c2)) = Q(a1, b2) + Q(b1, c2) + Q(c1, a2)
                                    + (the same with indices 1 and 2 swapped),

the polarization of the quadratic form Q(a, b) + Q(b, c) + Q(c, a), doubled
(G. Lion, M. Vergne, "The Weil representation, Maslov index and theta
series", 1980).  With the bases of A, B, C as the rows of A, B, C, its
matrix is

    [[0, P, R^T], [P^T, 0, S], [R, S^T, 0]],  P = A J B^T, S = B J C^T, R = C J A^T,

and tau(A, B, C) is minus the signature of K, computed by one exact
congruence.  The bases are the Lagrangians' own: RREF rows, each scaled by the
positive lcm of its denominators to a primitive int row: a positive row
scale is a congruence and keeps the signature.  Kashiwara's index agrees
with Wall's, the signature of Psi(b1, b2) = Q(b1, c2) on
B ∩ (C + A) / ((B ∩ C) + (B ∩ A)), where c2 in C has b2 + c2 in A, up to
one global sign (S. Cappell, R. Lee, E. Miller, "On the Maslov index",
Comm. Pure Appl. Math. 47 (1994)).  The minus sign makes the two equal, and fixes the normalization:
in the plane with Q((x1,x2),(y1,y2)) = x1 y2 - x2 y1,
tau(span(1,0), span(1,1), span(0,1)) = -1, where K has signature +1.  The
tests hold the index to Wall's construction, built the long way.
|tau| <= n is asserted at runtime.

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

from .errors import InputError, InternalConsistencyError
from .ratlinalg import Matrix, clear_denominators, kernel_basis, signature_symmetric
from .symplectic import Lagrangian, SymplecticSpace, is_symplectic


def _same_space(a: Lagrangian, b: Lagrangian, c: Lagrangian) -> SymplecticSpace:
    if a.space != b.space or b.space != c.space:
        raise InputError("Lagrangian triple must share one ambient space")
    return a.space


def maslov_index(a: Lagrangian, b: Lagrangian, c: Lagrangian) -> int:
    """Minus the signature of Kashiwara's form on A + B + C (module docstring).
    Zero for the zero-dimensional ambient space, whose form is 0 x 0."""
    space = _same_space(a, b, c)
    # basis rows tagged by summand; block (k, l) is Q between them, signed +1 from a
    # summand to the next one in the cycle A -> B -> C -> A, -1 back and 0 within
    rows = [(k, v) for k, lag in enumerate((a, b, c)) for v in lag.basis]
    form = [[0] * len(rows) for _ in rows]
    for i, (k, u) in enumerate(rows):
        for j, (l, v) in enumerate(rows[:i]):
            if l != k:
                form[i][j] = form[j][i] = (0, 1, -1)[(l - k) % 3] * space.pairing(u, v)
    tau = -signature_symmetric(Matrix(form, len(rows)))
    if abs(tau) > space.half_dim:
        raise InternalConsistencyError(f"Maslov index {tau} exceeds the half dimension")
    return tau


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
