"""Signatures of cyclic branched covers of a fibration, branched over a fiber.

For the n-fold cover of a fibration with total monodromy phi and signature
sigma, the covers satisfy

    sigma(cover_n) = n * sigma - sum_{m=1}^{n-1} correction(m),

where correction(m) is the signature of the symmetric integer matrix

    S_m = sum_{i=1}^{m} ((phi^T)^i J - J phi^i).

S_m represents a pairing that descends to the quotient by the fixed space of
phi^{m+1}; fixed vectors land in the radical of S_m (checked in the tests),
so the ambient signature already is the quotient signature.  The generator
`correction_sums` yields S_1, S_2, ... with three matrix products per term.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .errors import InputError, InternalConsistencyError
from .ratlinalg import Matrix, signature_symmetric
from .symplectic import SymplecticSpace, is_symplectic


@dataclass(frozen=True)
class CorrectionTerm:
    power: int
    matrix: Matrix
    sigma: int


def correction_sums(space: SymplecticSpace, phi: Matrix) -> Iterator[Matrix]:
    """Yield S_1, S_2, ... forever: P <- P phi, S <- S + (P^T J - J P); phi is not checked."""
    j = space.form
    total = Matrix.zeros(space.dim, space.dim)
    p = Matrix.identity(space.dim)
    while True:
        p = p @ phi
        total = total + (p.transpose() @ j - j @ p)
        yield total


def _term(m: int, total: Matrix) -> CorrectionTerm:
    if total != total.transpose():
        raise InternalConsistencyError("correction matrix is not symmetric")
    return CorrectionTerm(m, total, signature_symmetric(total))


def correction_terms(space: SymplecticSpace, phi: Matrix, n: int) -> list[CorrectionTerm]:
    """Correction terms m = 1 .. n-1 of the n-fold cover, in one pass over the powers."""
    if not is_symplectic(space, phi):
        raise InputError("monodromy matrix is not symplectic for this space")
    return [_term(m, total) for m, total in zip(range(1, n), correction_sums(space, phi))]


def correction_sigma(space: SymplecticSpace, phi: Matrix, m: int) -> CorrectionTerm:
    """Correction term for gluing the (m+1)-st sheet, m >= 1."""
    if m < 1:
        raise InputError("correction power must be >= 1")
    if not is_symplectic(space, phi):
        raise InputError("monodromy matrix is not symplectic for this space")
    return _term(m, next(islice(correction_sums(space, phi), m - 1, None)))


def cover_signature(base_sigma: int, phi: Matrix, n: int) -> int:
    """Signature of the n-fold cyclic cover branched over a regular fiber."""
    if n < 1:
        raise InputError("fold count must be >= 1")
    if not phi.is_square() or phi.rows % 2 != 0:
        raise InputError("monodromy matrix must be square of even size")
    space = SymplecticSpace.standard(phi.rows // 2)
    return n * base_sigma - sum(t.sigma for t in correction_terms(space, phi, n))
