"""Signature of a Lefschetz fibration over the disk from its monodromy word.

Each vanishing cycle gamma_k contributes a local term.  Write Phi_k for the
homology action of the length-k prefix (left-handed twists contribute their
inverse transvections) and c_k for the chirality.  For [gamma_k] != 0 solve

    (Id - Phi_k) x = [gamma_k];                                   (step solve)

if no solution exists the step contributes nothing, otherwise

    sigma_k = sign(1 + c_k * Q([gamma_k], x)),

which does not depend on the choice of x.  The total is

    signature = - sum_k c_k * sigma_k  -  sum over null-homologous k of c_k:

a right twist along a separating curve adds a -1-framed handle (count -1),
a left one adds a +1-framed handle (count +1).

Every step equals a Wall non-additivity defect of graph Lagrangians, which
`local_sigma_via_maslov` recomputes independently; the two routes agree on
every input and the tests enforce that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .maslov import fiber_sum_defect
from .ratlinalg import Matrix, Vector, sign, solve_linear
from .symplectic import (
    MonodromyWord,
    VanishingCycle,
    transvection,
    word_action,
)


@dataclass(frozen=True)
class StepRecord:
    """Everything the algorithm produced for one vanishing cycle.

    `witness` is the deterministic particular solution of the step solve
    (None when the cycle is null-homologous or the solve is inconsistent);
    `cumulative_action` is Phi_k.
    """

    index: int
    cycle: VanishingCycle
    solvable: bool
    sigma: int
    witness: Vector | None
    cumulative_action: Matrix


@dataclass(frozen=True)
class SignatureTrace:
    word: MonodromyWord
    steps: tuple[StepRecord, ...]
    null_homologous_count: int
    total: int


def local_sigma(word: MonodromyWord, k: int) -> StepRecord:
    """Local contribution record of step k (1-indexed)."""
    if not 1 <= k <= len(word):
        raise InputError(f"step {k} out of range 1..{len(word)}")
    cycle = word.cycles[k - 1]
    space = word.space
    phi_k = word_action(word, k)
    if cycle.is_null_homologous:
        return StepRecord(k, cycle, True, 0, None, phi_k)
    gamma = cycle.vector()
    res = solve_linear(Matrix.identity(space.dim) - phi_k, gamma)
    if res.particular is None:
        return StepRecord(k, cycle, False, 0, None, phi_k)
    q = space.pairing(gamma, res.particular)
    sigma = sign(Fraction(1) + cycle.chirality * q)
    return StepRecord(k, cycle, True, sigma, res.particular, phi_k)


def signature(word: MonodromyWord) -> SignatureTrace:
    """Run the per-cycle algorithm over the whole word and total it up."""
    steps = tuple(local_sigma(word, k) for k in range(1, len(word) + 1))
    nulls = sum(1 for c in word.cycles if c.is_null_homologous)
    total = -sum(s.cycle.chirality * s.sigma for s in steps)
    total -= sum(c.chirality for c in word.cycles if c.is_null_homologous)
    return SignatureTrace(word, steps, nulls, total)


def local_sigma_via_maslov(word: MonodromyWord, k: int) -> int:
    """Independent recomputation of sigma_k as a Wall defect.

    Splitting the fibration before cycle k leaves the single twist along
    gamma_k on one side and the length-(k-1) prefix on the other; the gluing
    defect is c_k * sigma_k.  Returns sigma_k for direct comparison with
    `local_sigma`.
    """
    if not 1 <= k <= len(word):
        raise InputError(f"step {k} out of range 1..{len(word)}")
    cycle = word.cycles[k - 1]
    space = word.space
    defect = fiber_sum_defect(
        space,
        transvection(space, cycle),
        word_action(word, k - 1),
    )
    return cycle.chirality * defect


def shortcut_dual_preserved(word: MonodromyWord, k: int) -> bool:
    """True when some dual of gamma_k is fixed by the prefix action Phi_{k-1}.

    Existence of y with Phi_{k-1} y = y and Q(gamma_k, y) = 1 forces
    sigma_k = 0, so a word passing this check at every step has signature
    determined by its null-homologous count alone.  Linear feasibility:
    stack (Phi_{k-1} - Id) y = 0 over Q(gamma_k, y) = 1.
    """
    if not 1 <= k <= len(word):
        raise InputError(f"step {k} out of range 1..{len(word)}")
    cycle = word.cycles[k - 1]
    if cycle.is_null_homologous:
        raise InputError("dual-preservation shortcut needs a non-null cycle")
    space = word.space
    phi_prev = word_action(word, k - 1)
    fixed = phi_prev - Matrix.identity(space.dim)
    # Q(gamma, y) = gamma^T J y = -(J gamma)^T y as a functional of y
    pairing_row = tuple(-x for x in space.form.apply(cycle.vector()))
    stacked = Matrix(fixed.entries + (pairing_row,), space.dim)
    rhs = [0] * space.dim + [1]
    return solve_linear(stacked, rhs).status != "inconsistent"

