"""The signature as a fibration invariant: mapping-class-group moves.

Three moves change a monodromy word but not the fibration it presents (Kas,
"On the handlebody decomposition associated to a Lefschetz fibration", 1980;
Gompf-Stipsicz, 4-Manifolds and Kirby Calculus, section 8.2):

- a Hurwitz move at i, either (g_i, g_i+1) -> (g_i+1, T_i+1 g_i) or
  (g_i, g_i+1) -> (T_i^-1 g_i+1, g_i), each cycle keeping its chirality;
- global conjugation, every g_j -> M g_j for an integral symplectic M, which
  conjugates the total monodromy by M;
- inserting a cancelling pair (g, c), (g, -c) anywhere.

The total must not change, the total monodromy must stay equal (up to the
conjugation), and the two routes must agree at every step of the moved word.
Unlike the two-route comparison alone, this checks the number against the
topology rather than one shared computation against another.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from lefsig import (
    Matrix,
    MonodromyWord,
    VanishingCycle,
    local_sigma,
    local_sigma_via_maslov,
    signature,
    transvection,
    word_action,
)
from lefsig.cli import parse_fibration_document

from .fixtures import DATA_DIR, random_symplectic, random_word

FIBRATIONS = {p.name: parse_fibration_document(text).word
              for p in sorted(DATA_DIR.glob("*.json")) if '"cycles"' in (text := p.read_text())}
MOVES = ("hurwitz", "hurwitz_inverse", "conjugate", "cancel")


def move(rng: random.Random, w: MonodromyWord, kind: str,
         conjugator: Matrix) -> tuple[MonodromyWord, Matrix]:
    """Apply one move; return the moved word and the accumulated conjugator."""
    cycles = list(w.cycles)
    space = w.space
    if kind == "conjugate":
        m = random_symplectic(rng, space, twists=2, spread=1)
        cycles = [VanishingCycle(m.apply(c.homology_class), c.chirality) for c in cycles]
        conjugator = m @ conjugator
    elif kind == "cancel":
        g = tuple(rng.randint(-2, 2) for _ in range(space.dim))
        c = rng.choice((1, -1))
        i = rng.randint(0, len(cycles))
        cycles[i:i] = [VanishingCycle(g, c), VanishingCycle(g, -c)]
    elif len(cycles) >= 2:
        i = rng.randrange(len(cycles) - 1)
        a, b = cycles[i], cycles[i + 1]
        if kind == "hurwitz":
            moved = transvection(b).apply(a.homology_class)
            cycles[i:i + 2] = [b, VanishingCycle(moved, a.chirality)]
        else:
            inverse = VanishingCycle(a.homology_class, -a.chirality)
            moved = transvection(inverse).apply(b.homology_class)
            cycles[i:i + 2] = [VanishingCycle(moved, b.chirality), a]
    return MonodromyWord(w.surface, tuple(cycles)), conjugator


@given(st.sampled_from(["random", *FIBRATIONS]), st.integers(0, 10_000),
       st.lists(st.sampled_from(MOVES), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_mapping_class_group_moves_keep_the_signature(source, seed, moves):
    rng = random.Random(seed)
    if source == "random":
        w = random_word(rng, rng.randint(1, 3), 4, spread=2, chiral_only=False)
    else:
        w = FIBRATIONS[source]
    total, phi = signature(w).total, word_action(w)
    moved, conjugator = w, Matrix.identity(w.space.dim)
    for kind in moves:
        moved, conjugator = move(rng, moved, kind, conjugator)
        assert signature(moved).total == total, (kind, moved.cycles)
        assert word_action(moved) @ conjugator == conjugator @ phi
        for k in range(1, len(moved) + 1):
            assert local_sigma(moved, k).sigma == local_sigma_via_maslov(moved, k)


def test_the_moves_change_the_word():
    """Each move kind acts on the matsumoto word, so the invariance above is
    not vacuous."""
    w = FIBRATIONS["matsumoto.json"]
    for kind in MOVES:
        moved, _ = move(random.Random(kind), w, kind, Matrix.identity(w.space.dim))
        assert moved.cycles != w.cycles, kind
