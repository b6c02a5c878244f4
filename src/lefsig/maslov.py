"""Ternary Maslov index of Lagrangian triples and the fiber-sum defect.

For Lagrangians A, B, C of a symplectic space (V, Q) of dimension 2n, the
index is read on Kashiwara's space W = {(x, y) in B x C : x + y in A}, of
dimension about n.  A is its own Q-orthogonal, so x + y lies in A exactly
when Q(a_i, x + y) = 0 for each basis row a_i: on the bases of B and C, W is
the int kernel (`ratlinalg._int_kernel`) of the n x 2n rows gram(A, B + C).
On W, Q(x1 + y1, x2 + y2) = 0 and Q vanishes on B and on C, so
Q(y1, x2) = Q(y2, x1): the form Q(y, x), `gram(C, B)` read on the kernel
rows, is symmetric because A, B and C are Lagrangian, and that it comes out
symmetric is a runtime self-check, as is |tau| <= n.  The constructor makes
every `Lagrangian` isotropic and full rank, so a failed check is a bug.
tau(A, B, C) is minus its signature, by one exact congruence of the form
divided by its content.
The tests keep the 3n x 3n form on A + B + C of G. Lion, M. Vergne ("The
Weil representation, Maslov index and theta series", 1980) as their oracle.
Kashiwara's index agrees with Wall's, the signature of Psi(b1, b2) = Q(b1, c2)
on B ∩ (C + A) / ((B ∩ C) + (B ∩ A)), where c2 in C has b2 + c2 in A, up to
one global sign (S. Cappell, R. Lee, E. Miller, "On the Maslov index", Comm.
Pure Appl. Math. 47 (1994)).  The minus sign makes the two equal, and fixes
the normalization: in the plane with Q((x1,x2),(y1,y2)) = x1 y2 - x2 y1,
tau(span(1,0), span(1,1), span(0,1)) = -1: W is spanned by ((1, 1), (0, -1)),
where Q(y, x) = +1.  The tests hold the index to Wall's, built the long way.

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
follow on ints, and F's symmetry is the one self-check.  V is read off the
matrices: `fiber_sum_defect` (so `meyer_cocycle` and `lefsig meyer`) checks
A and B by `symplectic._space_of` and refuses two sizes; the second route
passes a transvection and a prefix action of one size, symplectic by
construction, to `_meyer_defect` directly.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from operator import mul

from .errors import InputError, InternalConsistencyError
from .ratlinalg import Matrix, _int_kernel, clear_denominators, signature_symmetric
from .symplectic import Lagrangian, _gram, _space_of


def maslov_index(a: Lagrangian, b: Lagrangian, c: Lagrangian) -> int:
    """Minus the signature of Q(y, x) on W = {(x, y) in B x C : x + y in A},
    the int kernel of the rows gram(A, B + C) (module docstring); zero for
    the zero-dimensional ambient space."""
    space = a.space
    if b.space != space or c.space != space:
        raise InputError("Lagrangian triple must share one ambient space")
    n = space.half_dim
    kernel = _int_kernel(list(map(list, _gram(a.basis, b.basis + c.basis))), 2 * n)
    qcb = tuple(zip(*_gram(c.basis, b.basis)))  # column j: Q(c_i, b_j) down i
    qyb = [[sum(map(mul, v[n:], col)) for col in qcb] for v in kernel]  # Q(y, b_j)
    form = tuple(tuple(sum(map(mul, row, v[:n])) for v in kernel) for row in qyb)
    if (content := gcd(*chain(*form))) > 1:  # a positive scale: the signature stays
        form = tuple(tuple(x // content for x in row) for row in form)
    try:
        tau = -signature_symmetric(Matrix._exact(form, len(kernel)))
    except InputError as exc:  # it checks symmetry; Q(y, x) is symmetric on W only
        raise InternalConsistencyError("the Maslov form did not come out symmetric") from exc
    if abs(tau) > n:
        raise InternalConsistencyError(f"Maslov index {tau} exceeds the half dimension")
    return tau


def fiber_sum_defect(phi_minus: Matrix, phi_plus: Matrix) -> int:
    """Signature defect of gluing fibrations with boundary monodromies
    phi_minus (later piece) and phi_plus (earlier piece), as Meyer's form
    (module docstring).  The glued total monodromy is phi_minus @ phi_plus.
    """
    if _space_of(phi_minus, "phi_minus") != _space_of(phi_plus, "phi_plus"):
        raise InputError(f"sizes differ: phi_minus {phi_minus.rows}, phi_plus {phi_plus.rows}")
    return _meyer_defect(phi_minus, phi_plus)


def _meyer_defect(a: Matrix, b: Matrix) -> int:
    """`fiber_sum_defect` without its checks, for symplectic A and B of one size."""
    d = a.rows
    kernel = _int_kernel([clear_denominators([(i == j) - x for j, x in enumerate(ra)]
                                             + [x - (i == j) for j, x in enumerate(rb)])[1]
                          for i, (ra, rb) in enumerate(zip(a.entries, b.entries))], 2 * d)
    xs, ys = [v[:d] for v in kernel], [v[d:] for v in kernel]
    us = [[sum(map(mul, ra, x)) + yi for ra, yi in zip(a.entries, y)] for x, y in zip(xs, ys)]
    ws = [[yi - sum(map(mul, rb, y)) for rb, yi in zip(b.entries, y)] for y in ys]
    form = Matrix._exact(_gram(us, ws), len(kernel))
    try:
        return signature_symmetric(form)
    except InputError as exc:  # it checks symmetry; F is symmetric on the kernel only
        raise InternalConsistencyError("Meyer's form did not come out symmetric") from exc


def meyer_cocycle(m1: Matrix, m2: Matrix) -> int:
    """Meyer's 2-cocycle on the symplectic group: minus the fiber-sum defect,
    whose checks name m1 phi_minus and m2 phi_plus."""
    return -fiber_sum_defect(m1, m2)
