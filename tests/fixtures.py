"""Frozen inputs and expected values shared across the test modules.

The two derived cycle-vector tuples (matsumoto, chain) come out of the
search scripts in scripts/; rerunning those reproduces them bit for bit.
Everything else is either a hand-checkable matrix or an exact constant the
suite pins down through at least two independent computation routes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from lefsig import (
    Lagrangian,
    Matrix,
    MonodromyWord,
    Surface,
    SymplecticSpace,
    VanishingCycle,
    transvection,
    word,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# genus-one block with total action [[11,6],[75,41]]; signature +1 per repeat
POSITIVE_VECTORS = ((1, 0), (2, 5), (1, 5))
BLOCK_ACTION = Matrix.from_rows([[11, 6], [75, 41]])

TWIST_1_0 = Matrix.from_rows([[1, 1], [0, 1]])
TWIST_2_5 = Matrix.from_rows([[-9, 4], [-25, 11]])
TWIST_1_5 = Matrix.from_rows([[-4, 1], [-25, 6]])

# order-10 genus-2 monodromy and the derived vanishing-cycle vectors
MATSUMOTO_PHI = Matrix.from_rows(
    [[0, 1, 0, -1], [-1, 0, 0, 0], [1, 0, 1, 1], [-1, 0, -1, 0]]
)
MATSUMOTO_CYCLES = ((0, 0, 0, 1), (0, 1, -1, 1), (0, 1, 0, 0), (1, -1, 0, 0))
MATSUMOTO_CORRECTIONS = (4, 4, 0, 4, 4, 0, 4, 4, 0)

# three-chain whose fourth power acts like the two boundary twists
CHAIN_CYCLES = ((0, 1, -1, 0), (1, -1, -1, 0), (0, 1, 0, 0))
CHAIN_CORRECTIONS = (3, 3, 1)

DELTA = (0, 0, 1, 0)
DELTA_STAR = Matrix.from_rows(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
)

# first correction matrix of the matsumoto monodromy, signature 4
MATSUMOTO_CORR_1 = Matrix.from_rows(
    [[2, 0, 1, 1], [0, 2, 0, -1], [1, 0, 2, 1], [1, -1, 1, 2]]
)

# certificate sum for the block action at n = 1
CERTIFICATE_N1 = Matrix.from_rows([[-150, -30], [-30, 12]])


def positive_word(n: int = 1) -> MonodromyWord:
    return word(Surface(1, 1), list(POSITIVE_VECTORS) * n)


def delta_pair_word() -> MonodromyWord:
    return word(Surface(1, 2), [list(DELTA), list(DELTA)])


def matsumoto_word(n: int = 1) -> MonodromyWord:
    return word(Surface(2, 0), [list(v) for v in MATSUMOTO_CYCLES] * n)


def chain_word(n: int = 1) -> MonodromyWord:
    return word(Surface(1, 2), [list(v) for v in CHAIN_CYCLES] * n)


def chain_classes(genus: int) -> list[tuple[int, ...]]:
    """The standard chain c_1 .. c_{2g+1} on the closed genus-g fiber: b_1, a_1,
    b_1 - b_2, a_2, ..., b_{g-1} - b_g, a_g, b_g in the basis a_1, b_1, ...,
    a_g, b_g, so Q(c_i, c_{i+1}) = +-1 and every other pair is 0."""
    def vector(*entries: tuple[int, int]) -> tuple[int, ...]:
        v = [0] * (2 * genus)
        for i, x in entries:
            v[i] = x
        return tuple(v)

    classes = [vector((1, 1))]  # b_1
    for i in range(genus):
        classes.append(vector((2 * i, 1)))  # a_{i+1}
        b_next = ((2 * i + 3, -1),) if i + 1 < genus else ()
        classes.append(vector((2 * i + 1, 1), *b_next))  # b_{i+1} - b_{i+2}, or b_g
    return classes


def odd_chain_relation(genus: int) -> MonodromyWord:
    """(t_{c_1} ... t_{c_{2g+1}})^{2g+2}: a hyperelliptic relation, signature -2(g+1)^2
    (H. Endo, Math. Ann. 316 (2000))."""
    return word(Surface(genus, 0), chain_classes(genus) * (2 * genus + 2))


def even_chain_relation(genus: int) -> MonodromyWord:
    """(t_{c_1} ... t_{c_{2g}})^{4g+2}: a hyperelliptic relation, signature -4g(g+1)
    (H. Endo, Math. Ann. 316 (2000))."""
    return word(Surface(genus, 0), chain_classes(genus)[:-1] * (4 * genus + 2))


FIXTURE_WORDS = {
    "positive": positive_word,
    "delta-pair": delta_pair_word,
    "matsumoto": matsumoto_word,
    "chain": chain_word,
}


def random_symplectic(rng: random.Random, space: SymplecticSpace,
                      twists: int = 4, spread: int = 2) -> Matrix:
    """Random product of transvections; symplectic by construction.  The
    identity in dimension 0, where no transvection exists."""
    m = Matrix.identity(space.dim)
    if not space.dim:
        return m
    for _ in range(rng.randint(1, twists)):
        vec = [rng.randint(-spread, spread) for _ in range(space.dim)]
        if all(x == 0 for x in vec):
            vec[rng.randrange(space.dim)] = 1
        m = transvection(VanishingCycle(tuple(vec), rng.choice([1, -1]))) @ m
    return m


def block_sum(*blocks: Matrix) -> Matrix:
    """The block-diagonal matrix of the blocks, in order."""
    cols = sum(b.cols for b in blocks)
    rows, left = [], 0
    for b in blocks:
        rows += [(0,) * left + row + (0,) * (cols - left - b.cols) for row in b.entries]
        left += b.cols
    return Matrix(rows, cols)


def handle_scaled(phi: Matrix) -> Matrix:
    """phi conjugated by diag(2, 1/2) on each handle: symplectic for the
    standard form when phi is, with rational entries, and the same covers."""
    scale, unscale = (block_sum(*[Matrix.from_rows(m)] * (phi.rows // 2))
                      for m in ([[2, 0], [0, Fraction(1, 2)]], [[Fraction(1, 2), 0], [0, 2]]))
    return unscale @ phi @ scale


def random_lagrangian(rng: random.Random, space: SymplecticSpace) -> Lagrangian:
    """Image of the span of a_1, ..., a_G under a random symplectic map."""
    m = random_symplectic(rng, space)
    basis = m.transpose().entries[0::2]
    return Lagrangian(space, basis)


def random_word(rng: random.Random, half_dim: int, max_len: int,
                spread: int = 3, chiral_only: bool = True) -> MonodromyWord:
    surface = Surface(half_dim, 0)
    n = rng.randint(1, max_len)
    vectors = [[rng.randint(-spread, spread) for _ in range(2 * half_dim)] for _ in range(n)]
    chis = [1 if chiral_only else rng.choice([1, -1]) for _ in range(n)]
    return word(surface, vectors, chis)


def stream_word(rng: random.Random) -> MonodromyWord:
    """A word of 0-12 cycles on genus 1-4 with 0-2 boundary components: null,
    repeated and non-primitive cycles of both chiralities among random ones."""
    surface = Surface(rng.randint(1, 4), rng.randint(0, 2))
    dim = 2 * surface.half_dim
    vectors: list[list[int]] = []
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.15:
            v = [0] * dim
        elif roll < 0.3 and vectors:
            v = rng.choice(vectors)
        elif roll < 0.45:
            f = rng.choice((2, -3))
            v = [f * rng.randint(-1, 1) for _ in range(dim)]
        else:
            v = [rng.randint(-2, 2) for _ in range(dim)]
        vectors.append(v)
    return word(surface, vectors, [rng.choice((1, -1)) for _ in vectors])
