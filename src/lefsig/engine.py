"""Signature of a Lefschetz fibration over the disk from its monodromy word.

Each vanishing cycle gamma_k contributes a local term.  Write Phi_k for the
homology action of the length-k prefix (left-handed twists contribute their
inverse transvections) and c_k for the chirality.  For [gamma_k] != 0 solve

    (Id - Phi_k) x = [gamma_k];                                   (step solve)

if no solution exists the step contributes nothing, otherwise

    sigma_k = sign(1 + c_k * Q([gamma_k], x)),

which does not depend on the choice of x.  The step runs on ints: one
forward elimination of [Id - Phi_k | gamma_k] and one back-substitution give
x = n / delta over a common denominator delta > 0, and since delta > 0,
sign(1 + c * Q(gamma, n / delta)) = sign(delta + c * Q(gamma, n)).

Only the rows I_k of [Id - Phi_k | gamma_k] are eliminated, I_k the pivot
coordinates of an echelon basis of gamma_1 .. gamma_k (`prefix_sweep`).
Id - Phi_k = sum_{j<=k} c_j gamma_j r_j^T maps into
S_k = span(gamma_1 .. gamma_k), and so does gamma_k;
projection onto I_k is injective on S_k, so the rows I_k have the null space
of the whole system, hence its RREF, its pivot columns, its solvability and
its witness.  When S_k is the whole space, I_k is every row.  The dual
check of `shortcut_dual_preserved` reads the rows I_{k-1} by the same
argument.  The total is

    signature = - sum_k c_k * sigma_k  -  sum over null-homologous k of c_k:

a right twist along a separating curve adds a -1-framed handle (count -1),
a left one adds a +1-framed handle (count +1).

The steps are one left-to-right stream, `_readouts`: step k needs only
gamma_k and the step state (Phi_k, I_k), which one `prefix_sweep` yields,
and `_readout` reads it in ints, (solvable, sigma_k, (delta, n)), which the
CLI writes out as they are.  Records are for library readers: `signature`
makes one per readout and sums the terms in the same pass, leaving the word's
cache empty, `local_sigma(word, k)` reads the pair the word keeps (the
sweep's one tuple, built on first use), and `_record` is the one place a
witness is divided out into Fractions.

The plain total and Phi_n need no step of w itself (`_total_and_action`, which
plain `signature`, `power` and `generate` read).  Join two handles when some
cycle touches both: one union-find pass gives the final components, and it
stops joining once one component holds every handle.  Cycles of other
components act on other handles, so Phi_k is block-diagonal over them and the
identity on untouched handles, each step of w is the matching step of the
restricted word w|C, and

    signature = sum over final components C of sigma(w|C)  -  sum over null k of c_k.

Each w|C is u^m for u its shortest period dividing its length, which the
prefix function of its cycle tuple gives in one pass; u runs through
`_readouts` at C's dimension, and (sigma(u^m), Phi_u^m) comes from
`cover._power`, the partial fiber sum tree on the one gluing rule
(sigma(u) + sigma(v) - defect(Phi_v, Phi_u), Phi_v Phi_u).  Phi_n is the
blocks put back in place.

Every step equals a Wall non-additivity defect, the signature of Meyer's
form on V for the single twist glued to the prefix (`maslov.fiber_sum_defect`),
which `local_sigma_via_maslov` recomputes independently; the two routes agree
on every input and the tests enforce that.  That route works on all of V on
purpose: it shares no row selection with the step solve.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import compress
from operator import itemgetter, mul

from ._record import _Record, _setattr
from .cover import _power
from .errors import InputError, _require_range
from .maslov import _meyer_defect
from .ratlinalg import Matrix, Vector, _divide, _int_solve, sign
from .symplectic import (
    MonodromyWord,
    Surface,
    VanishingCycle,
    _apply_form,
    prefix_sweep,
    transvection,
    word_action,
)

Readout = tuple[bool, int, tuple[int, list[int]] | None]  # (solvable, sigma, (delta, n))


class StepRecord(_Record):
    """Everything the algorithm produced for one vanishing cycle.

    `witness` is the deterministic particular solution of the step solve
    (None when the cycle is null-homologous or the solve is inconsistent, so
    a solvable step without a witness is a null-homologous one).  Each of its
    entries is an int exactly when it is integral, else a Fraction.
    `cumulative_action` is Phi_k.
    """

    _fields = ("index", "cycle", "solvable", "sigma", "witness", "cumulative_action")

    def __init__(self, index: int, cycle: VanishingCycle, solvable: bool, sigma: int,
                 witness: Vector | None, cumulative_action: Matrix) -> None:
        _setattr(self, "index", index)
        _setattr(self, "cycle", cycle)
        _setattr(self, "solvable", solvable)
        _setattr(self, "sigma", sigma)
        _setattr(self, "witness", witness)
        _setattr(self, "cumulative_action", cumulative_action)


class SignatureTrace(_Record):
    """The step records of a word and their total (module docstring)."""

    _fields = ("word", "steps", "null_homologous_count", "total")

    def __init__(self, word: MonodromyWord, steps: tuple[StepRecord, ...],
                 null_homologous_count: int, total: int) -> None:
        _setattr(self, "word", word)
        _setattr(self, "steps", steps)
        _setattr(self, "null_homologous_count", null_homologous_count)
        _setattr(self, "total", total)


def _step_rows(phi: Matrix, rhs: Sequence[int], rows: Sequence[int]) -> list[list[int]]:
    """The int rows i in `rows` of [Id - Phi | rhs]."""
    out = []
    for i in rows:
        row = [-x for x in phi.entries[i]]
        row[i] += 1
        row.append(rhs[i])
        out.append(row)
    return out


def _cycle(word: MonodromyWord, k: int) -> VanishingCycle:
    """Cycle k (1-indexed) of the word, once k is checked to be a step of it."""
    _require_range("k", k, 1, len(word))
    return word.cycles[k - 1]


def _readout(cycle: VanishingCycle, phi_k: Matrix, rows: Sequence[int]) -> Readout:
    """(solvable, sigma_k, (delta, n)) of step k on ints, (delta, n) None on a null
    or unsolvable step; Q needs no length check: the lengths are the word's."""
    if cycle.is_null_homologous:
        return True, 0, None
    gamma = cycle.homology_class
    solved = _int_solve(_step_rows(phi_k, gamma, rows), phi_k.cols)
    if solved is None:
        return False, 0, None
    q = sum(map(mul, gamma, _apply_form(solved[1])))  # Q(gamma, n)
    return True, sign(solved[0] + cycle.chirality * q), solved


def _record(k: int, cycle: VanishingCycle, phi_k: Matrix, readout: Readout) -> StepRecord:
    """The record of step k: its readout, with the witness n / delta divided out."""
    solvable, sigma, solved = readout
    witness = None if solved is None else tuple(_divide(solved[1], solved[0]))
    return StepRecord(k, cycle, solvable, sigma, witness, phi_k)


def local_sigma(word: MonodromyWord, k: int) -> StepRecord:
    """Local contribution record of step k (1-indexed), from the word's kept
    pair (Phi_k, I_k): the random-access entry to the steps."""
    cycle = _cycle(word, k)
    phi_k, rows = word._sweep[k]
    return _record(k, cycle, phi_k, _readout(cycle, phi_k, rows))


def _readouts(word: MonodromyWord) -> Iterator[tuple[int, VanishingCycle, Matrix, Readout]]:
    """(k, gamma_k, Phi_k, readout of step k) in order, from one `prefix_sweep`;
    nothing is kept on the word or here once a step is yielded."""
    sweep = prefix_sweep(word.space, word.cycles)
    next(sweep)  # (Phi_0, I_0) precedes the first cycle
    for k, (cycle, (phi_k, rows)) in enumerate(zip(word.cycles, sweep), start=1):
        yield k, cycle, phi_k, _readout(cycle, phi_k, rows)


def _term(cycle: VanishingCycle, sigma: int) -> int:
    """The step's term of the total: -c_k sigma_k, or -c_k on a null cycle."""
    return -cycle.chirality * (1 if cycle.is_null_homologous else sigma)


def signature(word: MonodromyWord) -> SignatureTrace:
    """Run the per-cycle algorithm over the whole word and total it up."""
    steps, nulls, total = [], 0, 0
    for k, cycle, phi_k, readout in _readouts(word):
        steps.append(_record(k, cycle, phi_k, readout))
        nulls += cycle.is_null_homologous
        total += _term(cycle, readout[1])
    return SignatureTrace(word, tuple(steps), nulls, total)


def _period(keys: Sequence[object]) -> int:
    """The smallest p with keys == keys[:p] * (n // p), n = len(keys) >= 1: the
    prefix function's longest proper border b of the whole gives the smallest
    period n - b, which is such a p when it divides n; else none below n is."""
    border, borders = 0, [0] * len(keys)
    for i in range(1, len(keys)):
        while border and keys[i] != keys[border]:
            border = borders[border - 1]
        if keys[i] == keys[border]:
            border += 1
        borders[i] = border
    p = len(keys) - border
    return p if len(keys) % p == 0 else len(keys)


def _total_and_action(word: MonodromyWord) -> tuple[int, Matrix]:
    """The plain total and Phi_n of the word by partial fiber sums over its final
    components, each glued from its period (module docstring); no record made."""
    d = word.space.dim
    parent = list(range(d // 2))  # union-find over the handles, by path halving

    def find(t: int) -> int:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    parts, nulls, live = d // 2, 0, []
    for cycle in word.cycles:
        g = cycle.homology_class
        if not any(g):
            nulls += cycle.chirality
            continue
        live.append(cycle)
        if parts > 1:  # once one component holds every handle, nothing is left to join
            head, *rest = {find(i >> 1) for i in compress(range(d), g)}
            for t in rest:
                parent[t] = head
            parts -= len(rest)
    if parts == 1:  # one component holds every handle, and every live cycle
        components = [(range(d), live)] if live else []
    else:
        members: dict[int, list[VanishingCycle]] = {}
        for cycle in live:
            head = next(compress(range(d), cycle.homology_class)) >> 1
            members.setdefault(find(head), []).append(cycle)
        coords: dict[int, list[int]] = {root: [] for root in members}
        for t in range(d // 2):
            if (root := find(t)) in coords:
                coords[root] += (2 * t, 2 * t + 1)
        components = [(coords[root], cycles) for root, cycles in members.items()]
    total, blocks = -nulls, []
    for coords, cycles in components:
        pick = itemgetter(*coords)  # w|C: each cycle on C's coordinates
        keys = [(pick(c.homology_class), c.chirality) for c in cycles]
        p = _period(keys)
        u = cycles[:p] if len(coords) == d else [VanishingCycle(*key) for key in keys[:p]]
        sigma = 0
        for _, cycle, phi, readout in _readouts(MonodromyWord(Surface(len(coords) // 2, 0), u)):
            sigma += _term(cycle, readout[1])
        sigma, phi = _power((sigma, phi), len(keys) // p)
        if len(coords) == d:  # the only component: Phi_n is its block
            return total + sigma, phi
        total += sigma
        blocks.append((coords, phi))
    rows = list(Matrix.identity(d).entries)  # Phi_n: the blocks in place, the identity elsewhere
    for coords, phi in blocks:
        for i, block_row in zip(coords, phi.entries):
            row = [0] * d
            for j, x in zip(coords, block_row):
                row[j] = x
            rows[i] = tuple(row)
    return total, Matrix._exact(tuple(rows), d)


def local_sigma_via_maslov(word: MonodromyWord, k: int) -> int:
    """Independent recomputation of sigma_k as a Wall defect.

    Splitting the fibration before cycle k leaves the single twist along
    gamma_k on one side and the length-(k-1) prefix on the other; the gluing
    defect, the signature of Meyer's form on V for (T_k, Phi_{k-1}), is
    c_k * sigma_k.  Returns sigma_k for direct comparison with
    `local_sigma`.
    """
    cycle = _cycle(word, k)
    # both factors are symplectic by construction, of the word's dimension
    defect = _meyer_defect(transvection(cycle), word_action(word, k - 1))
    return cycle.chirality * defect


def shortcut_dual_preserved(word: MonodromyWord, k: int) -> bool:
    """True when some dual of gamma_k is fixed by the prefix action Phi_{k-1}.

    Existence of y with Phi_{k-1} y = y and Q(gamma_k, y) = 1 forces
    sigma_k = 0, so a word passing this check at every step has signature
    determined by its null-homologous count alone.  Linear feasibility of
    the int rows I_{k-1} of [Id - Phi_{k-1} | 0] over Q(gamma_k, y) = 1
    (module docstring).
    """
    cycle = _cycle(word, k)
    if cycle.is_null_homologous:
        raise InputError("dual-preservation shortcut needs a non-null cycle")
    space = word.space
    phi, pivots = word._sweep[k - 1]
    rows = _step_rows(phi, (0,) * space.dim, pivots)
    # Q(gamma, y) = gamma^T J y = -(J gamma)^T y as a functional of y
    rows.append([-x for x in _apply_form(cycle.homology_class)] + [1])
    return _int_solve(rows, space.dim) is not None

