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
partial fiber sum tree of w^n.  Wall non-additivity (Meyer 1973) glues two
words u (first) and v as

    (sigma_u, Phi_u) + (sigma_v, Phi_v) = (sigma_u + sigma_v - defect(Phi_v, Phi_u), Phi_v Phi_u),

the one gluing rule `_glue`, and `_power` squares and multiplies on it for
(sigma(w^n), phi^n) with O(log n) defects and products.  Both are unchecked:
`cover_signature` checks its arguments and then calls `_power`, and the
engine's plain total calls it on each component's period (`engine`).
sigma(S_m) = defect(phi, phi^m) ties the ladder to the tree.
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


def _glue(u: tuple[int, Matrix], v: tuple[int, Matrix]) -> tuple[int, Matrix]:
    """(sigma(u v), Phi_v Phi_u) from the pairs of u (first) and v, unchecked:
    sigma(u) + sigma(v) - defect(Phi_v, Phi_u), for symplectic Phi of one size."""
    return u[0] + v[0] - _meyer_defect(v[1], u[1]), v[1] @ u[1]


def _power(u: tuple[int, Matrix], n: int) -> tuple[int, Matrix]:
    """(sigma(u^n), Phi_u^n) from (sigma(u), Phi_u) by square and multiply on
    `_glue`, for n >= 1, unchecked: the partial fiber sum tree of u^n."""
    out = u
    for bit in bin(n)[3:]:  # out is the pair of u^k, k the leading bits of n
        out = _glue(out, out)
        if bit == "1":
            out = _glue(out, u)
    return out


def cover_signature(base_sigma: int, phi: Matrix, n: int) -> int:
    """Signature of the n-fold cyclic cover branched over a regular fiber, on the tree."""
    _require_int("base_sigma", base_sigma)
    _require_range("n", n, 1)
    _space_of(phi, "phi")
    return _power((base_sigma, phi), n)[0]
