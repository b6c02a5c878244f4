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
congruence.  P, S and R are `SymplecticSpace.gram` blocks of the Lagrangians'
own bases, which are primitive int rows.  Kashiwara's index agrees
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
in (V + V, Q + -Q), which the tests hold it to on the standard form of
V + V: swapping a_i and b_i in the second copy turns -Q into Q.  The kernel
rows (x, y) come off one int elimination (`ratlinalg._int_kernel`) scaled by
positive lcms, a congruence; u = A x + y, w = (Id - B) y and F = gram(u, w)
follow on ints, and F's symmetry is the one self-check.  Only
`fiber_sum_defect` (and so `meyer_cocycle` and `lefsig meyer`) checks that A
and B are symplectic; the second route passes a transvection and a prefix
action, symplectic by construction, to `_meyer_defect` directly.
"""

from __future__ import annotations

from operator import mul

from .errors import InputError, InternalConsistencyError
from .ratlinalg import Matrix, _int_kernel, clear_denominators, signature_symmetric
from .symplectic import Lagrangian, SymplecticSpace, is_symplectic


def _same_space(a: Lagrangian, b: Lagrangian, c: Lagrangian) -> SymplecticSpace:
    if a.space != b.space or b.space != c.space:
        raise InputError("Lagrangian triple must share one ambient space")
    return a.space


def maslov_index(a: Lagrangian, b: Lagrangian, c: Lagrangian) -> int:
    """Minus the signature of Kashiwara's form on A + B + C (module docstring).
    Zero for the zero-dimensional ambient space, whose form is 0 x 0."""
    space = _same_space(a, b, c)
    n = space.half_dim
    p, s, r = (space.gram(x.basis, y.basis) for x, y in ((a, b), (b, c), (c, a)))
    pt, st, rt = (tuple(zip(*m)) for m in (p, s, r))
    zero = ((0,) * n,) * n
    form = tuple(x + y + z for blocks in ((zero, p, rt), (pt, zero, s), (r, st, zero))
                 for x, y, z in zip(*blocks))
    tau = -signature_symmetric(Matrix._exact(form, 3 * n))
    if abs(tau) > n:
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
    return _meyer_defect(space, phi_minus, phi_plus)


def _meyer_defect(space: SymplecticSpace, a: Matrix, b: Matrix) -> int:
    """`fiber_sum_defect` without its checks, for A and B known to be symplectic."""
    d = space.dim
    kernel = _int_kernel([clear_denominators([(i == j) - x for j, x in enumerate(ra)]
                                             + [x - (i == j) for j, x in enumerate(rb)])[1]
                          for i, (ra, rb) in enumerate(zip(a.entries, b.entries))], 2 * d)
    xs, ys = [v[:d] for v in kernel], [v[d:] for v in kernel]
    us = [[sum(map(mul, ra, x)) + yi for ra, yi in zip(a.entries, y)] for x, y in zip(xs, ys)]
    ws = [[yi - sum(map(mul, rb, y)) for rb, yi in zip(b.entries, y)] for y in ys]
    form = Matrix._exact(space.gram(us, ws), len(kernel))
    try:
        return signature_symmetric(form)
    except InputError as exc:  # it checks symmetry; F is symmetric on the kernel only
        raise InternalConsistencyError("Meyer's form did not come out symmetric") from exc


def meyer_cocycle(space: SymplecticSpace, m1: Matrix, m2: Matrix) -> int:
    """Meyer's 2-cocycle on the symplectic group: minus the fiber-sum defect."""
    return -fiber_sum_defect(space, m1, m2)
