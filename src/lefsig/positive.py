"""A family of fibrations over the disk with positive signature.

Repeating the three-cycle block gamma_1 = (1,0), gamma_2 = (2,5),
gamma_3 = (1,5) on a genus-one fiber n times yields an allowable fibration
of signature exactly +n.  The block's total monodromy B = (11 6 / 75 41) has
strictly positive entries, and for any such B every matrix

    (B^T)^k J - J B^k,   k >= 1,

lands in the cone of symmetric 2x2 matrices with negative (1,1) and positive
(2,2) entry.  The cone is closed under addition and everything in it has
signature 0, which certifies that all branched-cover corrections of powers
of B vanish; the cover route then reproduces n * sigma(block) with no loss.
"""

from __future__ import annotations

import sys
from itertools import islice

from ._record import _Record, _setattr
from .cover import correction_sums
from .errors import InputError, _require_range
from .ratlinalg import Matrix
from .symplectic import MonodromyWord, Surface, VanishingCycle

BLOCK_VECTORS: tuple[tuple[int, int], ...] = ((1, 0), (2, 5), (1, 5))


class PositiveFamilySpec(_Record):
    """Parameters of a positive-signature word: fiber genus >= 1, boundary
    components >= 0, and how many times to repeat the block."""

    _fields = ("genus", "boundary", "repetitions")

    def __init__(self, genus: int, boundary: int, repetitions: int) -> None:
        _require_range("genus", genus, 1)
        _require_range("boundary", boundary, 0)
        _require_range("repetitions", repetitions, 1)
        _setattr(self, "genus", genus)
        _setattr(self, "boundary", boundary)
        _setattr(self, "repetitions", repetitions)


def generate(spec: PositiveFamilySpec) -> MonodromyWord:
    """The block word, padded with zeros to the ambient dimension and repeated.

    Padding keeps the cycles supported on the first handle, so the signature
    is the same as in the genus-one case: one per repetition.
    """
    surface = Surface(spec.genus, spec.boundary)
    dim = 2 * surface.half_dim
    cycles = []
    for _ in range(spec.repetitions):
        for v in BLOCK_VECTORS:
            cycles.append(VanishingCycle(v + (0,) * (dim - 2)))
    return MonodromyWord(surface, tuple(cycles))


def signature_zero_certificate(b: Matrix, n: int) -> tuple[Matrix, bool]:
    """Certify sum_{k=1..n} ((B^T)^k J - J B^k) has signature 0 by cone membership.

    Requires B to be a 2x2 matrix with strictly positive entries.  Returns the
    summed matrix together with the membership verdict: symmetric, negative
    (1,1) entry, positive (2,2) entry.  Such a matrix has strictly negative
    determinant, hence signature 0; the verdict is a proof, not a numeric
    estimate.
    """
    _require_range("n", n, 1, sys.maxsize)
    if b.rows != 2 or b.cols != 2:
        raise InputError("certificate applies to 2x2 matrices")
    if not all(b.at(i, j) > 0 for i in range(2) for j in range(2)):
        raise InputError("certificate applies to entrywise positive matrices")
    total = next(islice(correction_sums(b), n - 1, None))
    member = (
        total.at(0, 1) == total.at(1, 0)
        and total.at(0, 0) < 0
        and total.at(1, 1) > 0
    )
    return total, member
