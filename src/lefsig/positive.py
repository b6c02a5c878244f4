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

from dataclasses import dataclass
from itertools import islice

from .cover import correction_sums
from .errors import InputError
from .ratlinalg import Matrix
from .symplectic import MonodromyWord, Surface, SymplecticSpace, VanishingCycle

BLOCK_VECTORS: tuple[tuple[int, int], ...] = ((1, 0), (2, 5), (1, 5))


@dataclass(frozen=True)
class PositiveFamilySpec:
    """Parameters of a positive-signature word: fiber genus >= 1, boundary
    components >= 0, and how many times to repeat the block."""

    genus: int
    boundary: int
    repetitions: int

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise InputError("positive family needs genus >= 1")
        if self.boundary < 0:
            raise InputError("boundary count must be nonnegative")
        if self.repetitions < 1:
            raise InputError("repetition count must be >= 1")


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
    if b.rows != 2 or b.cols != 2:
        raise InputError("certificate applies to 2x2 matrices")
    if not all(b.at(i, j) > 0 for i in range(2) for j in range(2)):
        raise InputError("certificate applies to entrywise positive matrices")
    if n < 1:
        raise InputError("certificate needs n >= 1")
    total = next(islice(correction_sums(SymplecticSpace.standard(1), b), n - 1, None))
    member = (
        total.at(0, 1) == total.at(1, 0)
        and total.at(0, 0) < 0
        and total.at(1, 1) > 0
    )
    return total, member
