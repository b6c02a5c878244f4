"""Signatures of cyclic branched covers of a fibration, branched over a fiber.

For the n-fold cover of a fibration with total monodromy phi and signature
sigma, the covers satisfy

    sigma(cover_n) = n * sigma - sum_{m=1}^{n-1} correction(m),

where correction(m) is the signature of the symmetric integer matrix

    S_m = sum_{i=1}^{m} ((phi^T)^i J - J phi^i).

S_m represents a pairing that descends to the quotient by the fixed space of
phi^{m+1}; fixed vectors land in the radical of S_m (checked in the tests),
so the ambient signature already is the quotient signature.  The generator
`correction_sums` yields S_1, S_2, ... with one matrix product per term,
X_m = phi^T X_{m-1} from X_0 = J, so X_m = (phi^m)^T J: because J^T = -J for
every symplectic form, J phi^m = -X_m^T and the new summand is X_m + X_m^T.
S_m is symmetric by construction, and `signature_symmetric` checks it once.
`correction_terms`, which checks phi by `symplectic._space_of` as
`cover_signature` does, streams the terms, so a caller that keeps only the
signatures holds one S_m at a time.  The ladder runs on tuple rows and wraps
only the S_m it hands out in a `Matrix`: a term is one `ratlinalg._product`
(the rule of `Matrix @`) and one pass of adds.

The ladder gives the terms and the certificate's S_m; the total comes from the
partial fiber sum tree of w^n.  Wall non-additivity (Meyer 1973) splits it as
sigma(w^(a+b)) = sigma(w^a) + sigma(w^b) - defect(phi^b, phi^a), so
`cover_signature` squares and multiplies on (sigma(w^a), phi^a) pairs with
O(log n) defects and products.  sigma(S_m) = defect(phi, phi^m) ties the two.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import add

from ._record import _Record, _setattr
from .errors import _require_int, _require_range
from .maslov import _meyer_defect
from .ratlinalg import Matrix, _product, signature_symmetric
from .symplectic import SymplecticSpace, _space_of


class CorrectionTerm(_Record):
    """The m-th correction of the ladder: S_m and its signature."""

    _fields = ("power", "matrix", "sigma")

    def __init__(self, power: int, matrix: Matrix, sigma: int) -> None:
        _setattr(self, "power", power)
        _setattr(self, "matrix", matrix)
        _setattr(self, "sigma", sigma)


def correction_sums(phi: Matrix) -> Iterator[Matrix]:
    """Yield S_1, S_2, ... forever: X <- phi^T X from X = J, S <- S + X + X^T; phi unchecked."""
    d = phi.rows
    phi_columns = phi.transpose().entries
    x_t, total = SymplecticSpace(d // 2).form.transpose().entries, ((0,) * d,) * d
    while True:
        x_t = _product(x_t, phi_columns)  # X^T <- X^T phi, the columns of X as rows
        total = tuple(tuple(map(add, s, map(add, r, c))) for s, r, c in zip(total, zip(*x_t), x_t))
        yield Matrix._exact(total, d)


def correction_terms(phi: Matrix, n: int) -> Iterator[CorrectionTerm]:
    """Correction terms m = 1 .. n-1 of the n-fold cover, streamed in one pass
    over the powers; n and phi are checked before the first term is asked for."""
    _require_range("n", n, 1)
    _space_of(phi, "phi")
    sums = zip(range(1, n), correction_sums(phi))
    return (CorrectionTerm(m, total, signature_symmetric(total)) for m, total in sums)


def cover_signature(base_sigma: int, phi: Matrix, n: int) -> int:
    """Signature of the n-fold cyclic cover branched over a regular fiber, on the tree."""
    _require_int("base_sigma", base_sigma)
    _require_range("n", n, 1)
    _space_of(phi, "phi")
    # sigma(w^k), phi^k = later @ power for k the leading bits of n, multiplied once needed
    sigma, power, later = base_sigma, phi, None
    for bit in bin(n)[3:]:
        if later is not None:
            power = later @ power
        sigma = 2 * sigma - _meyer_defect(power, power)
        later = power
        if bit == "1":
            power = power @ power
            sigma += base_sigma - _meyer_defect(phi, power)
            later = phi
    return sigma
